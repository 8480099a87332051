package main

import (
	"cmp"
	"fmt"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// A workload repeats its set-up at least setupMinRepeats times and for at
// least setupMinTime (at most setupMaxRepeats times); setup_s is the
// median, so one slow repetition does not move it, and a set-up of well
// under a millisecond is still measured hundreds of times.
const (
	setupMinRepeats = 5
	setupMaxRepeats = 500
	setupMinTime    = 500 * time.Millisecond
)

// A clock reads a monotonic time.
type clock func() time.Duration

var started = time.Now()

// wallTime is elapsed wall-clock time. The relay workload times with it:
// a dial's latency is wall time.
func wallTime() time.Duration { return time.Since(started) }

// cpuTime is the CPU time of the whole process, user plus system, over
// all threads. The simulation and model workloads time with it. They are
// CPU-bound, so on an idle host it tracks wall time; the 2-shard cells and
// the GC add their second thread's work. On a shared VM the hypervisor
// takes the virtual CPUs away in bursts (steal time), which stretched wall
// time by up to 2x between runs; CPU time leaves stolen time out.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail with RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timed runs fn and returns the time it took on clk.
func timed(clk clock, fn func()) time.Duration {
	t0 := clk()
	fn()
	return clk() - t0
}

// medianSetup repeats fn and returns the median time of one call on clk.
// between, when set, runs untimed before every call but the first.
func medianSetup(clk clock, between func(), fn func() error) (time.Duration, error) {
	var times []time.Duration
	start := time.Now()
	for len(times) < setupMinRepeats || (time.Since(start) < setupMinTime && len(times) < setupMaxRepeats) {
		if between != nil && len(times) > 0 {
			between()
		}
		var err error
		dt := timed(clk, func() { err = fn() })
		if err != nil {
			return 0, err
		}
		times = append(times, dt)
	}
	return quantile(times, 0.5), nil
}

// opStats accumulates one phase's timed operations.
type opStats struct {
	times             []time.Duration // successful operations only
	memMB             []float64       // heldMB after each operation
	attempted, failed int
}

// loop runs op until budget has elapsed, starting another operation only
// while one more (as long as the slowest so far) still ends inside the
// budget, so a run's length tracks its budget, and stopping after limit
// operations when limit > 0. It always runs at least one operation. op
// reports its own host time, so a caller can time only the call into the
// program and leave its output checks untimed; ok=false counts the
// operation as failed and leaves its time out.
func loop(budget time.Duration, limit int, op func() (dt time.Duration, ok bool)) opStats {
	var st opStats
	start := time.Now()
	var slowest time.Duration
	for st.attempted == 0 || (time.Since(start)+slowest <= budget && (limit <= 0 || st.attempted < limit)) {
		t0 := time.Now()
		dt, ok := op()
		if wall := time.Since(t0); wall > slowest {
			slowest = wall
		}
		st.memMB = append(st.memMB, heldMB())
		st.attempted++
		if !ok {
			st.failed++
			continue
		}
		st.times = append(st.times, dt)
	}
	return st
}

func (s *opStats) add(o opStats) {
	s.times = append(s.times, o.times...)
	s.memMB = append(s.memMB, o.memMB...)
	s.attempted += o.attempted
	s.failed += o.failed
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile[T cmp.Ordered](xs []T, q float64) T {
	var zero T
	if len(xs) == 0 {
		return zero
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heldMB is the memory the Go runtime holds from the operating system:
// everything it has mapped, less heap pages it has released. The process
// is pure Go, so this is its footprint without reading /proc.
func heldMB() float64 {
	ss := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	metrics.Read(ss)
	if ss[0].Value.Kind() != metrics.KindUint64 || ss[1].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(ss[0].Value.Uint64()-ss[1].Value.Uint64()) / (1 << 20)
}

// rtSample is a reading of the Go runtime's cumulative counters.
type rtSample struct {
	allocObjects, allocBytes uint64
	gcCPU, busyCPU           float64 // seconds
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() rtSample {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	u := func(i int) uint64 {
		if ss[i].Value.Kind() == metrics.KindUint64 {
			return ss[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if ss[i].Value.Kind() == metrics.KindFloat64 {
			return ss[i].Value.Float64()
		}
		return 0
	}
	return rtSample{
		allocObjects: u(0),
		allocBytes:   u(1),
		gcCPU:        f(2),
		busyCPU:      f(3) - f(4),
	}
}

// rtDelta is the runtime work done between two readings.
type rtDelta struct {
	allocObjects, allocBytes float64
	gcShare                  float64 // GC CPU over busy CPU
}

func (a rtSample) to(b rtSample) rtDelta {
	d := rtDelta{
		allocObjects: float64(b.allocObjects - a.allocObjects),
		allocBytes:   float64(b.allocBytes - a.allocBytes),
	}
	if busy := b.busyCPU - a.busyCPU; busy > 0 {
		d.gcShare = (b.gcCPU - a.gcCPU) / busy
	}
	return d
}

// endToEndReport turns a timed phase into the end-to-end metrics of a
// workload whose operation carries payloadMB of (simulated or predicted)
// payload.
func endToEndReport(st opStats, setup time.Duration, payloadMB float64) *report {
	med := quantile(st.times, 0.5)
	return &report{
		attempted: st.attempted,
		failed:    st.failed,
		metrics: map[string]float64{
			"setup_s":  setup.Seconds(),
			"op_ms":    ms(med),
			"mb_per_s": ratio(payloadMB, med.Seconds()),
			"mem_MB":   quantile(st.memMB, 0.5),
		},
	}
}

// phases is the outcome of a profiled run: an unprofiled half (a) with the
// runtime's allocation and GC work over it, then a profiled half.
type phases struct {
	a  opStats
	rt rtDelta
	opStats
}

// profiledPhases runs op for half the budget with profiling off and half
// with the CPU and allocation profiles on, and records the layer shares
// and the profiling overhead (profiled over unprofiled median) in m.
func profiledPhases(p params, op func() (time.Duration, bool), m map[string]float64) (*phases, error) {
	ph := &phases{}
	rt0 := readRuntime()
	ph.a = loop(p.budget/2, 0, op)
	ph.rt = rt0.to(readRuntime())
	prof, err := startProfiler()
	if err != nil {
		return nil, err
	}
	b := loop(p.budget/2, 0, op)
	lp, err := prof.stop()
	if err != nil {
		return nil, err
	}
	lp.put(m)
	m["runtime.gc_cpu_share"] = ph.rt.gcShare
	m["profile_overhead"] = ratio(float64(quantile(b.times, 0.5)), float64(quantile(ph.a.times, 0.5)))
	ph.opStats.add(ph.a)
	ph.opStats.add(b)
	return ph, nil
}

// ratio is a/b, or 0 when b is 0, so unmeasured layers read 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// splitmix derives the benchmark's input seeds from --seed, independent of
// any seeding code in the program under test.
func splitmix(seed int64, label uint64) int64 {
	z := uint64(seed) + label*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	v := int64(z >> 1) // positive, so it reads well in logs
	if v == 0 {
		v = 1 // the program treats seed 0 as "use the default"
	}
	return v
}
