package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	ip "incastproxy"
	"incastproxy/internal/stats"
)

// runWorkload runs the benchmark's command line and decodes its last
// output line.
func runWorkload(t *testing.T, args ...string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%v: exit %d\n%s", args, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not a result: %v", args, err)
	}
	return res
}

func checkMetrics(t *testing.T, name string, res result, defs []metricDef, nonZero bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", name, d.name)
		case v.Unit != d.unit:
			t.Errorf("%s: metric %s unit %q, want %q", name, d.name, v.Unit, d.unit)
		case nonZero && v.Value <= 0:
			t.Errorf("%s: metric %s = %v, want > 0", name, d.name, v.Value)
		}
	}
}

// TestSmokeEveryWorkload runs each workload briefly, end-to-end and
// profiled, and checks that every metric prints with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		res := runWorkload(t, "--workload", w.name, "--seed", "1", "--seconds", "1", "--trace", "0")
		checkMetrics(t, w.name, res, endToEnd, true)
		res = runWorkload(t, "--workload", w.name, "--seed", "1", "--seconds", "1", "--trace", "1")
		checkMetrics(t, w.name+" profiled", res, perLayer, false)
		if v := res.Metrics["profile_overhead"].Value; v <= 0 {
			t.Errorf("%s: profile_overhead = %v", w.name, v)
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "model-sweep", "--seconds", "0"},
		{"--workload", "model-sweep", "--seconds", "1", "--trace", "2"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}

// TestDigestRejectsPerturbedOutcome changes one field of an outcome at a
// time and checks the digest check refuses each.
func TestDigestRejectsPerturbedOutcome(t *testing.T) {
	base := ip.RunResult{
		ICT: 5921 * ip.Microsecond, Completed: true,
		Timeouts: 1, Retransmits: 2, Nacks: 3, MarkedAcks: 4, PktsSent: 30000,
		ReceiverToRMaxQueue: 1000, ProxyToRMaxQueue: 2000,
		ReceiverToRDrops: 5, ProxyToRTrims: 6, ProxyToRDrops: 7,
		FlowFCT: stats.DurationSummary{N: 8, Min: 1, Mean: 2, Max: 3, P50: 4, P90: 5, P99: 6, P999: 7},
		Events:  3253729,
	}
	perturb := map[string]func(*ip.RunResult){
		"ict":       func(r *ip.RunResult) { r.ICT++ },
		"fct p99":   func(r *ip.RunResult) { r.FlowFCT.P99++ },
		"fct n":     func(r *ip.RunResult) { r.FlowFCT.N-- },
		"events":    func(r *ip.RunResult) { r.Events++ },
		"packets":   func(r *ip.RunResult) { r.PktsSent++ },
		"retx":      func(r *ip.RunResult) { r.Retransmits++ },
		"nacks":     func(r *ip.RunResult) { r.Nacks++ },
		"trims":     func(r *ip.RunResult) { r.ProxyToRTrims++ },
		"drops":     func(r *ip.RunResult) { r.ReceiverToRDrops++ },
		"max queue": func(r *ip.RunResult) { r.ProxyToRMaxQueue++ },
	}
	for name, f := range perturb {
		c := &outcomeCheck{workload: "test", want: cellDigest(base, 0), log: io.Discard}
		rr := base
		f(&rr)
		if c.ok(cellDigest(rr, 0)) {
			t.Errorf("perturbed %s: digest check passed", name)
		}
		if !c.ok(cellDigest(base, 0)) {
			t.Errorf("unperturbed outcome failed the check")
		}
	}
	// A sampler's events are discounted, not ignored.
	sampled := base
	sampled.Events += 600
	if cellDigest(sampled, 600) != cellDigest(base, 0) || cellDigest(sampled, 599) == cellDigest(base, 0) {
		t.Error("sampler event discount is wrong")
	}

	pts := []ip.FigurePoint{{Label: "size=1MB", Scheme: ip.Baseline, Avg: 10, Min: 10, Max: 10}}
	moved := []ip.FigurePoint{pts[0]}
	moved[0].Avg++
	if modelDigest(pts) == modelDigest(moved) {
		t.Error("model digest ignores a moved prediction")
	}
	sc := &ip.ScenarioResult{Done: map[ip.FlowID]ip.Duration{1: 5, 2: 7}, Completed: true, Makespan: 7, Events: 9}
	later := &ip.ScenarioResult{Done: map[ip.FlowID]ip.Duration{1: 6, 2: 7}, Completed: true, Makespan: 7, Events: 9}
	if sweepDigest(sweepOutcome{fig3: pts, scenario: sc}, 0) == sweepDigest(sweepOutcome{fig3: pts, scenario: later}, 0) {
		t.Error("sweep digest ignores a moved flow completion")
	}
}

// TestEveryModulePackageHasALayer keeps profile samples out of the
// unattributed bucket: each package of the module maps to a layer.
func TestEveryModulePackageHasALayer(t *testing.T) {
	dirs, err := filepath.Glob("../internal/*")
	if err != nil {
		t.Fatal(err)
	}
	dirs = append(dirs, "..")
	n := 0
	for _, dir := range dirs {
		srcs, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		hasSrc := false
		for _, s := range srcs {
			hasSrc = hasSrc || !strings.HasSuffix(s, "_test.go")
		}
		if !hasSrc {
			continue
		}
		pkg := modulePath
		if dir != ".." {
			pkg += "/internal/" + filepath.Base(dir)
		}
		n++
		if callerCharged["internal/"+filepath.Base(dir)] {
			if l := stackLayer([]string{pkg + ".F", "incastproxy/internal/netsim.G"}); l != "netsim" {
				t.Errorf("utility package %s: sample under netsim charged to %q", pkg, l)
			}
			continue
		}
		if directLayer(pkg) == "" {
			t.Errorf("package %s maps to no layer; add it to moduleLayer", pkg)
		}
		if l := stackLayer([]string{pkg + ".F"}); l == "other" || l == "runtime" {
			t.Errorf("package %s: sample charged to %q", pkg, l)
		}
	}
	if n < 20 {
		t.Fatalf("found only %d packages; is the test running from the benchmark directory?", n)
	}
}

func TestStackLayer(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"container/heap.down", "container/heap.Fix", "incastproxy/internal/sim.(*Engine).RunUntil"}, "sim"},
		{[]string{"incastproxy/internal/netsim.(*Port).tryTransmit.func1", "incastproxy/internal/sim.(*Engine).RunUntil"}, "netsim"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "incastproxy/internal/netsim.(*Host).NewPacket"}, "runtime"},
		{[]string{"runtime.mapaccess2_fast64", "incastproxy/internal/topo.(*Network).computeFIBs"}, "topo"},
		{[]string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.write", "internal/poll.(*FD).Write", "net.(*conn).Write", "incastproxy/internal/relay.(*Server).copyDirection"}, "relay"},
		{[]string{"sort.Search", "incastproxy.Figure2Right"}, "workload"},
		{[]string{"runtime/pprof.(*profileBuilder).addCPUData"}, "other"},
		{[]string{"main.quantile", "main.main"}, "other"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.read", "net.(*conn).Read", "main.(*sink).accept.func1"}, "other"},
		{[]string{"incastproxy/internal/units.Duration.Seconds", "incastproxy/internal/model.Predict"}, "model"},
	}
	for _, c := range cases {
		if got := stackLayer(c.frames); got != c.want {
			t.Errorf("stackLayer(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
	if got := allocLayer([]string{"runtime.mallocgc", "runtime.newobject", "incastproxy/internal/transport.(*Sender).transmit"}); got != "transport" {
		t.Errorf("allocLayer = %s, want transport", got)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			n += i
		}
	}
	return n
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profile unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	prof, err := parseCPUProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range prof.samples {
		total += s.count
		for _, f := range prof.frames(s.locs) {
			if f == "incastproxy/perfbench.spin" || f == "main.spin" {
				inSpin += s.count
				break
			}
		}
	}
	if total == 0 || inSpin*2 < total {
		t.Fatalf("%d of %d samples in spin", inSpin, total)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for i := 0; i < len(spec.Workloads) && i < len(workloads); i++ {
		if spec.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the command", i, spec.Workloads[i].Name, workloads[i].name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the command", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s/%s in BENCHMARK.json, %s/%s in the command", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
