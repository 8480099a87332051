package workload

import (
	"reflect"
	"testing"

	"incastproxy/internal/obs"
	"incastproxy/internal/units"
)

// withoutEvents strips the fields a Shards = 0 and a Shards = 1 run may
// legitimately disagree on: the lifetime event count (the 1-shard group
// stops at the barrier round, the unsharded one right after the completing
// event) and the pointers to the run's manifest and trace.
func withoutEvents(rr RunResult) RunResult {
	rr.Events, rr.Manifest, rr.Trace = 0, nil, nil
	return rr
}

// A 1-shard group is the unsharded run with a round-quantized stop: every
// RunResult field but Events must match, for every static scheme.
func TestUnshardedMatchesOneShard(t *testing.T) {
	for _, scheme := range []Scheme{Baseline, ProxyNaive, ProxyStreamlined, ProxyInferring} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			t.Parallel()
			unsharded := shardSpec(scheme)
			ures, err := Run(unsharded)
			if err != nil {
				t.Fatal(err)
			}
			one := shardSpec(scheme)
			one.Shards = 1
			ores, err := Run(one)
			if err != nil {
				t.Fatal(err)
			}
			u, o := ures.Runs[0], ores.Runs[0]
			if u.Events == 0 || o.Events < u.Events {
				t.Errorf("events: unsharded %d, 1-shard %d (the round stop can only add events)",
					u.Events, o.Events)
			}
			if !reflect.DeepEqual(withoutEvents(u), withoutEvents(o)) {
				t.Errorf("results diverge\n unsharded: %+v\n 1-shard:   %+v", u, o)
			}
		})
	}
}

// The inferring proxy's NACKs come from its loss tracker's timer flush;
// same-seed runs must repeat exactly (they once diverged because the flush
// walked the flow table in map order).
func TestInferringRepeatsExactly(t *testing.T) {
	spec := Spec{Scheme: ProxyInferring, Degree: 8, TotalBytes: 20 * units.MB, Runs: 1, Seed: 7}
	ref, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(withoutEvents(ref.Runs[0]), withoutEvents(res.Runs[0])) ||
			ref.Runs[0].Events != res.Runs[0].Events {
			t.Fatalf("repeat %d diverges\n ref: %+v\n got: %+v", i, ref.Runs[0], res.Runs[0])
		}
		if a, b := ref.Runs[0].Manifest.Metrics, res.Runs[0].Manifest.Metrics; !reflect.DeepEqual(a, b) {
			t.Fatalf("repeat %d: metric snapshots diverge", i)
		}
	}
}

// queueTracks runs spec traced and returns its receiver and proxy down-ToR
// occupancy series.
func queueTracks(t *testing.T, spec Spec) (rx, px *obs.Series, rr RunResult) {
	t.Helper()
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	rr = res.Runs[0]
	ss := &obs.SeriesSet{}
	rx = ss.AddCounter(rr.Trace, "queue", "queue recv-tor", "receiver")
	px = ss.AddCounter(rr.Trace, "queue", "queue proxy-tor", "proxy")
	return rx, px, rr
}

// The traced queue tracks sample every QueueSampleEvery from time zero and
// capture the proxy ToR's queue buildup.
func TestQueueTracksSampleEveryPeriod(t *testing.T) {
	spec := quickSpec(ProxyStreamlined)
	spec.Obs = &ObsConfig{Trace: true, QueueSampleEvery: 10 * units.Microsecond}
	rx, px, _ := queueTracks(t, spec)
	for _, s := range []*obs.Series{rx, px} {
		if len(s.Points) < 10 {
			t.Fatalf("%s: %d samples", s.Label, len(s.Points))
		}
		for i, p := range s.Points {
			if want := units.Time(i) * units.Time(10*units.Microsecond); p.At != want {
				t.Fatalf("%s: sample %d at %v, want %v", s.Label, i, p.At, want)
			}
		}
	}
	if peak, _ := px.Peak(); peak == 0 {
		t.Error("proxy ToR never queued under the streamlined incast")
	}
	if px.Mean() <= 0 {
		t.Error("proxy ToR mean occupancy should be positive")
	}
}

// The queue samplers stop with the run: no sample lands after the incast
// completes, so a track holds at most ICT/period + 1 points.
func TestQueueTracksStopWithRun(t *testing.T) {
	const every = 10 * units.Microsecond
	spec := quickSpec(ProxyStreamlined)
	spec.Obs = &ObsConfig{Trace: true, QueueSampleEvery: every}
	rx, px, rr := queueTracks(t, spec)
	limit := int(units.Duration(rr.ICT)/every) + 1
	for _, s := range []*obs.Series{rx, px} {
		if len(s.Points) == 0 {
			t.Fatalf("%s: no samples", s.Label)
		}
		if last := s.Points[len(s.Points)-1].At; last > units.Time(rr.ICT) {
			t.Errorf("%s: sampled at %v, after the run stopped at %v", s.Label, last, rr.ICT)
		}
		if len(s.Points) > limit {
			t.Errorf("%s: %d samples, more than the %d a %v run allows", s.Label, len(s.Points), limit, rr.ICT)
		}
	}
}

// The Figure 1 story as a time series: under the streamlined proxy the
// proxy down-ToR, not the receiver's, is the hot queue.
func TestQueueTracksShowBottleneckShift(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	spec := Spec{
		Scheme: ProxyStreamlined, Degree: 8, TotalBytes: 40 * units.MB, Runs: 1, Seed: 7,
		Obs: &ObsConfig{Trace: true, QueueSampleEvery: 200 * units.Microsecond},
	}
	rx, px, _ := queueTracks(t, spec)
	rxPeak, _ := rx.Peak()
	pxPeak, _ := px.Peak()
	if pxPeak <= rxPeak {
		t.Fatalf("proxy ToR peak %v should exceed receiver ToR peak %v", pxPeak, rxPeak)
	}
}
