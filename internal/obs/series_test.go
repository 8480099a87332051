package obs

import (
	"bytes"
	"strings"
	"testing"

	"incastproxy/internal/units"
)

const us = units.Time(units.Microsecond)

// Series of different lengths must merge on the union of timestamps with
// blank cells — the regression the old index-aligned writer had, where the
// shorter series' samples were stamped with the longer one's times.
func TestSeriesSetUnionMerge(t *testing.T) {
	ss := &SeriesSet{}
	long := ss.Add("long")
	short := ss.Add("short")
	for i := 1; i <= 4; i++ {
		long.Add(units.Time(i)*us, int64(i*10))
	}
	short.Add(2*us, 200) // sampled late, over a shorter window
	var b bytes.Buffer
	if err := ss.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"time_us,long,short",
		"1.000000,10,",
		"2.000000,20,200",
		"3.000000,30,",
		"4.000000,40,",
		"",
	}, "\n")
	if b.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", b.String(), want)
	}
}

// Duplicate timestamps must not wedge the per-series cursor: the last
// sample at a stamp wins and later rows still appear.
func TestSeriesSetDuplicateTimestamps(t *testing.T) {
	ss := &SeriesSet{}
	s := ss.Add("q")
	s.Add(1*us, 5)
	s.Add(1*us, 6) // same stamp, later sample: wins
	s.Add(2*us, 7)
	var b bytes.Buffer
	if err := ss.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "time_us,q\n1.000000,6\n2.000000,7\n"
	if b.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestSeriesPeakMean(t *testing.T) {
	var s Series
	if v, _ := s.Peak(); v != 0 {
		t.Fatal("empty peak should be 0")
	}
	if s.Mean() != 0 {
		t.Fatal("empty mean should be 0")
	}
	s.Add(1*us, 10)
	s.Add(2*us, 30)
	s.Add(3*us, 20)
	v, at := s.Peak()
	if v != 30 || at != 2*us {
		t.Fatalf("peak = %d @ %v", v, at)
	}
	if s.Mean() != 20 {
		t.Fatalf("mean = %d", s.Mean())
	}
}

// A tracer's counter tracks export through the same union-merged CSV:
// only the named track of the named category lands in a column.
func TestSeriesSetAddCounter(t *testing.T) {
	tr := NewTracer()
	for i := 0; i <= 2; i++ {
		at := units.Time(i) * 10 * us
		tr.Count(at, "queue", "queue a", 0, float64(100*i))
		tr.Count(at, "queue", "queue b", 0, float64(i))
		tr.Count(at, "transport", "queue a", 0, -1) // other category: ignored
	}
	tr.Instant(5*us, "queue", "queue a", 0) // not a counter: ignored
	ss := &SeriesSet{}
	if got := ss.AddCounter(tr, "queue", "queue a", "a"); len(got.Points) != 3 {
		t.Fatalf("queue a: %d points, want 3", len(got.Points))
	}
	ss.AddCounter(tr, "queue", "queue b", "b")
	ss.AddCounter(nil, "queue", "queue a", "untraced") // nil tracer: empty column
	var b bytes.Buffer
	if err := ss.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"time_us,a,b,untraced",
		"0.000000,0,0,",
		"10.000000,100,1,",
		"20.000000,200,2,",
		"",
	}, "\n")
	if b.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", b.String(), want)
	}
}
