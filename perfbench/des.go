package main

// The two packet-level simulation workloads. Their times are host time; the
// simulated outcomes (ICT, FCT, packet counts) are only checked, never
// reported as performance.

import (
	"fmt"
	"slices"
	"time"

	ip "incastproxy"
	"incastproxy/internal/rng"
	"incastproxy/internal/sim"
	"incastproxy/internal/topo"
	"incastproxy/internal/transport"
	"incastproxy/internal/units"
	"incastproxy/internal/workload"
)

// heapSamplePeriod is the virtual-time period of the heap-depth sampler.
const heapSamplePeriod = 10 * units.Microsecond

// longhaulSpec is the headline cell: Figure 2 (Left) at degree 8, 40 MB,
// proxy-streamlined, on the default fabric (1 ms long haul), single engine,
// default observability (metrics on).
func longhaulSpec(seed int64) ip.IncastSpec {
	return ip.IncastSpec{
		Scheme:     ip.ProxyStreamlined,
		Degree:     8,
		TotalBytes: 40 * ip.MB,
		Runs:       1,
		Seed:       splitmix(seed, 1),
		Parallel:   1,
	}
}

// fabricFor is the fabric configuration a single-engine incast run builds
// for spec.
func fabricFor(spec ip.IncastSpec) topo.Config {
	cfg := spec.Topo
	if cfg.Spines == 0 {
		cfg = topo.DefaultConfig()
	}
	cfg.Seed = spec.Seed
	if spec.Scheme == ip.ProxyStreamlined {
		cfg.TrimDC[0] = true
	}
	return cfg
}

func runDESLonghaul(p params) (*report, error) {
	spec := longhaulSpec(p.seed)
	fabric := fabricFor(spec)
	build, err := medianSetup(cpuTime, nil, func() error {
		topo.Build(sim.New(), fabric)
		return nil
	})
	if err != nil {
		return nil, err
	}
	check := newOutcomeCheck("des-longhaul", p.seed, p.log)
	var last ip.RunResult
	op := func() (time.Duration, bool) {
		var res *ip.IncastResult
		var err error
		dt := timed(cpuTime, func() { res, err = ip.RunIncast(spec) })
		if err != nil {
			fmt.Fprintf(p.log, "perfbench: des-longhaul: %v\n", err)
			return dt, false
		}
		rr := res.Runs[0]
		if err := checkCell(spec, rr); err != nil {
			fmt.Fprintf(p.log, "perfbench: des-longhaul: %v\n", err)
			return dt, false
		}
		last = rr
		return dt, check.ok(cellDigest(rr, 0))
	}
	payloadMB := float64(spec.TotalBytes) / 1e6

	if !p.trace {
		st := loop(p.budget, 0, op)
		return endToEndReport(st, build, payloadMB), nil
	}

	m := map[string]float64{"topo.build_ms": ms(build)}
	st, err := profiledPhases(p, op, m)
	if err != nil {
		return nil, err
	}
	if len(st.a.times) > 0 {
		perEvent := float64(last.Events) * float64(st.a.attempted)
		m["sim.ns_per_event"] = ratio(float64(quantile(st.a.times, 0.5)), float64(last.Events))
		m["runtime.allocs_per_event"] = ratio(st.rt.allocObjects, perEvent)
		m["runtime.alloc_bytes_per_event"] = ratio(st.rt.allocBytes, perEvent)
	}
	var c cellCounts
	c.add(last)
	c.put(m)

	// One more cell with the heap-depth sampler attached: its outcome,
	// less the sampler's own events, must be the unsampled outcome.
	var hs heapSampler
	sampled := spec
	sampled.OnBuild = hs.onBuild
	rep := &report{attempted: st.attempted, failed: st.failed, metrics: m}
	rep.attempted++
	res, err := ip.RunIncast(sampled)
	if err == nil {
		rr := res.Runs[0]
		rr.Events -= hs.fired
		err = checkCell(spec, rr)
		if err == nil && !check.ok(cellDigest(rr, 0)) {
			err = fmt.Errorf("the heap-depth sampler changed the outcome")
		}
	}
	if err != nil {
		fmt.Fprintf(p.log, "perfbench: des-longhaul: sampled cell: %v\n", err)
		rep.failed++
	}
	hs.put(m)
	return rep, nil
}

// checkCell is the invariant check every incast outcome must pass, at any
// seed: every flow done, FCTs inside the ICT, and at least one packet per
// MSS of payload.
func checkCell(spec ip.IncastSpec, rr ip.RunResult) error {
	mss := spec.MSS
	if mss <= 0 {
		mss = transport.DefaultMSS
	}
	switch {
	case !rr.Completed:
		return fmt.Errorf("cell incomplete")
	case rr.FlowFCT.N != spec.Degree:
		return fmt.Errorf("%d of %d flows finished", rr.FlowFCT.N, spec.Degree)
	case rr.ICT <= 0 || rr.FlowFCT.Max > rr.ICT:
		return fmt.Errorf("flow FCT max %v outside ICT %v", rr.FlowFCT.Max, rr.ICT)
	case rr.PktsSent < uint64(spec.TotalBytes/mss) || rr.Retransmits > rr.PktsSent:
		return fmt.Errorf("%d packets sent (%d retransmits) cannot carry %v", rr.PktsSent, rr.Retransmits, spec.TotalBytes)
	case rr.Events == 0:
		return fmt.Errorf("no events processed")
	}
	return nil
}

// cellDigest fingerprints an incast's simulated outcome. extraEvents is
// subtracted from the event count (events a sampler added).
func cellDigest(rr ip.RunResult, extraEvents uint64) string {
	d := newDigest()
	f := rr.FlowFCT
	d.add(uint64(rr.ICT), uint64(f.N), uint64(f.Min), uint64(f.Mean), uint64(f.Max),
		uint64(f.P50), uint64(f.P90), uint64(f.P99), uint64(f.P999),
		rr.Events-extraEvents, rr.PktsSent, rr.Retransmits, rr.Timeouts, rr.Nacks, rr.MarkedAcks,
		uint64(rr.ReceiverToRMaxQueue), uint64(rr.ProxyToRMaxQueue),
		rr.ReceiverToRDrops, rr.ProxyToRTrims, rr.ProxyToRDrops)
	return d.String()
}

// cellCounts sums the per-layer counts the program exports on a run's
// result and manifest.
type cellCounts struct {
	events, scheduled, pkts, trims, drops, nacks, retx, timeouts, ticks, steers float64
}

func (c *cellCounts) add(rr ip.RunResult) {
	c.events += float64(rr.Events)
	c.pkts += float64(rr.PktsSent)
	c.trims += float64(rr.ProxyToRTrims)
	c.drops += float64(rr.ReceiverToRDrops + rr.ProxyToRDrops)
	c.nacks += float64(rr.Nacks)
	c.retx += float64(rr.Retransmits)
	c.timeouts += float64(rr.Timeouts)
	if rr.Manifest != nil {
		get := func(name string) float64 {
			v, _ := rr.Manifest.Metrics.Get(name)
			return float64(v)
		}
		c.scheduled += get("sim_events_scheduled_total")
		c.ticks += get("control_ticks_total")
		c.steers += get("control_steers_total")
	}
}

func (c *cellCounts) put(m map[string]float64) {
	m["sim.events"] = c.events
	m["sim.scheduled"] = c.scheduled
	m["netsim.pkts_sent"] = c.pkts
	m["netsim.trims"] = c.trims
	m["netsim.drops"] = c.drops
	m["proxy.nacks"] = c.nacks
	m["transport.retransmits"] = c.retx
	m["transport.timeouts"] = c.timeouts
	m["transport.useful_ratio"] = ratio(c.pkts-c.retx, c.pkts)
	m["control.ticks"] = c.ticks
	m["control.steers"] = c.steers
}

// heapSampler records the event heap's depth every heapSamplePeriod of
// virtual time on the engines it is attached to, through the run's
// OnBuild hook.
type heapSampler struct {
	depths []int
	fired  uint64 // sampler events the last attached run processed
}

func (h *heapSampler) onBuild(_ *topo.Network, e *sim.Engine) {
	h.fired = 0
	var tick sim.Event
	tick = func(e *sim.Engine) {
		h.depths = append(h.depths, e.Pending())
		h.fired++
		e.Schedule(e.Now().Add(heapSamplePeriod), tick)
	}
	e.Schedule(units.Time(heapSamplePeriod), tick)
}

func (h *heapSampler) put(m map[string]float64) {
	if len(h.depths) == 0 {
		return
	}
	m["sim.heap_depth_p50"] = float64(quantile(h.depths, 0.5))
	m["sim.heap_depth_max"] = float64(slices.Max(h.depths))
}

// sweepInputs is the reduced mixed sweep: Figure 3 at two short long-haul
// delays on the 2-shard engine, FigureAdaptive's size, +cross and +crash
// rows on the single engine, and the orchestrated two-proxy scenario of the
// paper's future work #3.
type sweepInputs struct {
	fig3, adaptive ip.SweepConfig
	scenario       ip.Scenario
}

func desSweepInputs(seed int64) sweepInputs {
	return sweepInputs{
		fig3: ip.SweepConfig{
			Latencies:  []ip.Duration{10 * ip.Microsecond, 100 * ip.Microsecond},
			Fig3Degree: 4,
			Fig3Total:  20 * ip.MB,
			Runs:       1,
			Seed:       splitmix(seed, 2),
			Parallel:   1,
			Shards:     2,
		},
		adaptive: ip.SweepConfig{
			Sizes:           []ip.ByteSize{10 * ip.MB},
			Fig2RightDegree: 4,
			Fig3Total:       10 * ip.MB,
			Runs:            1,
			Seed:            splitmix(seed, 3),
			Parallel:        1,
		},
		scenario: ip.Scenario{Flows: orchestratedFlows(), Seed: splitmix(seed, 4)},
	}
}

// orchestratedFlows is two concurrent 4-sender incasts of 5 MB flows, each
// through its own streamlined proxy (hosts 62 and 63 of the sending DC).
func orchestratedFlows() []ip.FlowSpec {
	var flows []ip.FlowSpec
	id := ip.FlowID(1)
	for inc := 0; inc < 2; inc++ {
		for s := 0; s < 4; s++ {
			flows = append(flows, ip.FlowSpec{
				ID:    id,
				Src:   ip.HostRef{DC: 0, Host: inc*4 + s},
				Dst:   ip.HostRef{DC: 1, Host: inc},
				Bytes: 5 * ip.MB,
				Via:   &ip.ProxyRef{Scheme: ip.ProxyStreamlined, At: ip.HostRef{DC: 0, Host: 62 + inc}},
			})
			id++
		}
	}
	return flows
}

// sweepOutcome is one sweep's output.
type sweepOutcome struct {
	fig3, adaptive []ip.FigurePoint
	scenario       *ip.ScenarioResult
}

func runSweep(in sweepInputs) (sweepOutcome, error) {
	var out sweepOutcome
	var err error
	if out.fig3, err = ip.Figure3(in.fig3); err != nil {
		return out, fmt.Errorf("figure 3: %w", err)
	}
	if out.adaptive, err = ip.FigureAdaptive(in.adaptive); err != nil {
		return out, fmt.Errorf("adaptive figure: %w", err)
	}
	if out.scenario, err = ip.RunScenario(in.scenario); err != nil {
		return out, fmt.Errorf("orchestrated scenario: %w", err)
	}
	return out, nil
}

// checkSweep is the invariant check of a sweep's outcome at any seed.
func checkSweep(in sweepInputs, out sweepOutcome) error {
	if n := len(in.fig3.Latencies) * len(ip.Schemes()); len(out.fig3) != n {
		return fmt.Errorf("figure 3 has %d points, want %d", len(out.fig3), n)
	}
	if n := (len(in.adaptive.Sizes) + 2) * 3; len(out.adaptive) != n {
		return fmt.Errorf("adaptive figure has %d points, want %d", len(out.adaptive), n)
	}
	for _, pts := range [][]ip.FigurePoint{out.fig3, out.adaptive} {
		for _, pt := range pts {
			if pt.Avg <= 0 || pt.Min != pt.Avg || pt.Max != pt.Avg {
				return fmt.Errorf("point %s %v: avg %v min %v max %v from one run", pt.Label, pt.Scheme, pt.Avg, pt.Min, pt.Max)
			}
		}
	}
	sc := out.scenario
	if !sc.Completed || len(sc.Done) != len(in.scenario.Flows) {
		return fmt.Errorf("scenario finished %d of %d flows", len(sc.Done), len(in.scenario.Flows))
	}
	var last ip.Duration
	for _, d := range sc.Done {
		if d > last {
			last = d
		}
	}
	if last != sc.Makespan {
		return fmt.Errorf("scenario makespan %v is not its last flow's %v", sc.Makespan, last)
	}
	return nil
}

func sweepDigest(out sweepOutcome, extraScenarioEvents uint64) string {
	d := newDigest()
	for _, pts := range [][]ip.FigurePoint{out.fig3, out.adaptive} {
		for _, pt := range pts {
			d.str(pt.Label)
			d.add(uint64(pt.Scheme), uint64(pt.Avg), uint64(pt.Min), uint64(pt.Max), pt.ConfigHash, uint64(pt.Seed))
		}
	}
	sc := out.scenario
	for id := ip.FlowID(1); int(id) <= len(sc.Done); id++ {
		d.add(uint64(id), uint64(sc.Done[id]))
	}
	d.add(uint64(sc.Makespan), sc.Events-extraScenarioEvents)
	return d.String()
}

func runDESSweep(p params) (*report, error) {
	in := desSweepInputs(p.seed)
	// The cells pay one fabric build per distinct topology.
	var fabrics []topo.Config
	for _, lat := range in.fig3.Latencies {
		cfg := topo.DefaultConfig()
		cfg.InterDelay = lat
		fabrics = append(fabrics, cfg)
	}
	fabrics = append(fabrics, topo.DefaultConfig())
	build, err := medianSetup(cpuTime, nil, func() error {
		for _, cfg := range fabrics {
			topo.Build(sim.New(), cfg)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	check := newOutcomeCheck("des-sweep", p.seed, p.log)
	var last sweepOutcome
	op := func() (time.Duration, bool) {
		var out sweepOutcome
		var err error
		dt := timed(cpuTime, func() { out, err = runSweep(in) })
		if err == nil {
			err = checkSweep(in, out)
		}
		if err != nil {
			fmt.Fprintf(p.log, "perfbench: des-sweep: %v\n", err)
			return dt, false
		}
		last = out
		return dt, check.ok(sweepDigest(out, 0))
	}
	var payload ip.ByteSize
	for range in.fig3.Latencies {
		payload += in.fig3.Fig3Total * ip.ByteSize(len(ip.Schemes()))
	}
	for _, size := range in.adaptive.Sizes {
		payload += size * 3
	}
	payload += in.adaptive.Fig3Total * 3 * 2
	for _, f := range in.scenario.Flows {
		payload += f.Bytes
	}
	payloadMB := float64(payload) / 1e6

	if !p.trace {
		st := loop(p.budget, 0, op)
		return endToEndReport(st, build, payloadMB), nil
	}

	m := map[string]float64{"topo.build_ms": ms(build) / float64(len(fabrics))}
	st, err := profiledPhases(p, op, m)
	if err != nil {
		return nil, err
	}
	rep := &report{attempted: st.attempted + 1, failed: st.failed, metrics: m}
	// The figure API returns only ICTs, so the counts come from re-running
	// the sweep's cells through workload.Run with the seeds the sweep
	// derives; each must reproduce its figure point.
	var hs heapSampler
	counts, err := accountSweep(in, last, &hs)
	if err != nil {
		fmt.Fprintf(p.log, "perfbench: des-sweep: accounting pass: %v\n", err)
		rep.failed++
	}
	counts.put(m)
	if len(st.a.times) > 0 {
		perEvent := counts.events * float64(st.a.attempted)
		m["sim.ns_per_event"] = ratio(float64(quantile(st.a.times, 0.5)), counts.events)
		m["runtime.allocs_per_event"] = ratio(st.rt.allocObjects, perEvent)
		m["runtime.alloc_bytes_per_event"] = ratio(st.rt.allocBytes, perEvent)
	}
	hs.put(m)
	return rep, nil
}

// accountSweep re-runs every cell of the sweep the way the figure API runs
// it (cell seed derived from the sweep seed and the cell's row and scheme),
// checks that each reproduces its figure point, and sums the cells' counts.
// Single-engine cells carry the heap-depth sampler.
func accountSweep(in sweepInputs, out sweepOutcome, hs *heapSampler) (cellCounts, error) {
	var c cellCounts
	cell := func(cfg ip.SweepConfig, row int, s ip.Scheme, want ip.FigurePoint, customize func(*ip.IncastSpec)) error {
		sp := ip.IncastSpec{
			Scheme:   s,
			Runs:     1,
			Seed:     rng.DeriveSeed(cfg.Seed, int64(row), int64(s)),
			Parallel: 1,
		}
		if s != ip.SchemeAdaptive {
			sp.Shards = cfg.Shards
		}
		customize(&sp)
		if sp.Shards == 0 {
			sp.OnBuild = hs.onBuild
		}
		res, err := ip.RunIncast(sp)
		if err != nil {
			return fmt.Errorf("%s %v: %w", want.Label, s, err)
		}
		rr := res.Runs[0]
		if sp.Shards == 0 {
			rr.Events -= hs.fired
		}
		if rr.ICT != want.Avg {
			return fmt.Errorf("%s %v: ICT %v, figure point %v", want.Label, s, rr.ICT, want.Avg)
		}
		c.add(rr)
		return nil
	}
	schemes := ip.Schemes()
	for row, lat := range in.fig3.Latencies {
		for j, s := range schemes {
			lat := lat
			err := cell(in.fig3, row, s, out.fig3[row*len(schemes)+j], func(sp *ip.IncastSpec) {
				sp.Degree = in.fig3.Fig3Degree
				sp.TotalBytes = in.fig3.Fig3Total
				t := ip.DefaultTopo()
				t.InterDelay = lat
				sp.Topo = t
			})
			if err != nil {
				return c, err
			}
		}
	}
	a := in.adaptive
	rows := []func(*ip.IncastSpec){}
	for _, size := range a.Sizes {
		size := size
		rows = append(rows, func(sp *ip.IncastSpec) {
			sp.Degree = a.Fig2RightDegree
			sp.TotalBytes = size
			sp.Control = a.Policy
		})
	}
	rows = append(rows, func(sp *ip.IncastSpec) {
		sp.Degree = a.Fig2RightDegree
		sp.TotalBytes = a.Fig3Total
		sp.Control = a.Policy
		sp.CrossTraffic = workload.CrossTrafficSpec{Flows: 2, Bytes: 40 * ip.MB}
		sp.IncastDelay = 2 * ip.Millisecond
	}, func(sp *ip.IncastSpec) {
		sp.Degree = a.Fig2RightDegree
		sp.TotalBytes = a.Fig3Total
		sp.Control = a.Policy
		sp.ProxyCrashAt = ip.Millisecond
		sp.ProxyRestartAfter = 50 * ip.Millisecond
		sp.MaxSimTime = 2 * ip.Second
	})
	adaptiveSchemes := []ip.Scheme{ip.Baseline, ip.ProxyStreamlined, ip.SchemeAdaptive}
	for row, customize := range rows {
		for j, s := range adaptiveSchemes {
			if err := cell(a, row, s, out.adaptive[row*len(adaptiveSchemes)+j], customize); err != nil {
				return c, err
			}
		}
	}
	sc := in.scenario
	sc.OnBuild = hs.onBuild
	res, err := ip.RunScenario(sc)
	if err != nil {
		return c, fmt.Errorf("orchestrated scenario: %w", err)
	}
	c.events += float64(res.Events - hs.fired)
	got := sweepOutcome{fig3: out.fig3, adaptive: out.adaptive, scenario: res}
	if sweepDigest(got, hs.fired) != sweepDigest(out, 0) {
		return c, fmt.Errorf("orchestrated scenario: the heap-depth sampler changed the outcome")
	}
	return c, nil
}
