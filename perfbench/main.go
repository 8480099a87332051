// Command perfbench is the repository benchmark. It runs one named workload
// for a fixed wall-clock budget from a single process, checks the output of
// every operation it times, and prints one JSON result line:
//
//	perfbench --workload des-longhaul --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// profiling off. With --trace 1 the run is split into an unprofiled half and
// a profiled half: CPU and allocation samples are attributed to the
// program's layers by package, and the result carries the per-layer
// metrics instead. README.md lists every metric, the layer it belongs to,
// and the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them; "op" is the workload's unit of work (a DES cell, a
// reduced figure sweep, a 1002-cell model sweep, a relay dial).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms", "ms"},
	{"mb_per_s", "MB/s"},
	{"mem_MB", "MB"},
}

// perLayer are the profiled run's metrics. A workload that does not
// exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"sim.ns_per_event", "ns"},
	{"sim.events", "count"},
	{"sim.scheduled", "count"},
	{"sim.heap_depth_p50", "count"},
	{"sim.heap_depth_max", "count"},
	{"sim.self_share", "ratio"},
	{"runtime.self_share", "ratio"},
	{"runtime.allocs_per_event", "count"},
	{"runtime.alloc_bytes_per_event", "B"},
	{"runtime.gc_cpu_share", "ratio"},
	{"netsim.self_share", "ratio"},
	{"netsim.alloc_share", "ratio"},
	{"netsim.pkts_sent", "count"},
	{"netsim.trims", "count"},
	{"netsim.drops", "count"},
	{"proxy.self_share", "ratio"},
	{"proxy.nacks", "count"},
	{"topo.build_ms", "ms"},
	{"topo.self_share", "ratio"},
	{"transport.self_share", "ratio"},
	{"transport.alloc_share", "ratio"},
	{"transport.retransmits", "count"},
	{"transport.timeouts", "count"},
	{"transport.useful_ratio", "ratio"},
	{"control.self_share", "ratio"},
	{"control.ticks", "count"},
	{"control.steers", "count"},
	{"workload.self_share", "ratio"},
	{"obs.self_share", "ratio"},
	{"model.ns_per_cell", "ns"},
	{"model.allocs_per_cell", "count"},
	{"model.self_share", "ratio"},
	{"relay.dial_p99_ms", "ms"},
	{"relay.allocs_per_dial", "count"},
	{"relay.alloc_bytes_per_dial", "B"},
	{"relay.self_share", "ratio"},
	{"relay.syscall_share", "ratio"},
	{"wire.self_share", "ratio"},
	{"relay.admitted", "count"},
	{"relay.shed_busy", "count"},
	{"relay.dial_errors", "count"},
	{"profile_overhead", "ratio"},
}

// params are one run's inputs.
type params struct {
	seed   int64
	budget time.Duration
	trace  bool
	log    io.Writer // diagnostics; never the result line
}

// report is what a workload measured. metrics holds end-to-end values
// (trace off) or per-layer values (trace on), keyed by metric name.
type report struct {
	attempted, failed int
	metrics           map[string]float64
}

// workloadDef is one named workload.
type workloadDef struct {
	name string
	run  func(params) (*report, error)
}

var workloads = []workloadDef{
	{"des-longhaul", runDESLonghaul},
	{"des-sweep", runDESSweep},
	{"model-sweep", runModelSweep},
	{"relay-loopback", runRelayLoopback},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "wall-clock seconds to measure")
	trace := fs.Int("trace", 0, "1 runs the profiled per-layer run instead of the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	p := params{
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		trace:  *trace == 1,
		log:    stderr,
	}
	rep, err := wl.run(p)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	defs := endToEnd
	if p.trace {
		defs = perLayer
	}
	res, err := buildResult(rep, defs, !p.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", line); err != nil {
		return 1
	}
	return 0
}

// buildResult checks that the report carries only metrics of defs, each
// finite, and wraps them with their units. With requireAll every metric of
// defs must be present; otherwise an unmeasured one reads 0 (a layer the
// workload does not exercise).
func buildResult(rep *report, defs []metricDef, requireAll bool) (*result, error) {
	res := &result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && requireAll {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	var extra []string
	for k := range rep.metrics {
		if _, ok := res.Metrics[k]; !ok {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("unlisted metrics %v", extra)
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}
