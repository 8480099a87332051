package workload

import (
	"fmt"

	"incastproxy/internal/netsim"
	"incastproxy/internal/rng"
	"incastproxy/internal/runner"
	"incastproxy/internal/sim"
	"incastproxy/internal/topo"
	"incastproxy/internal/transport"
	"incastproxy/internal/units"
)

// HostRef names a host by datacenter and index.
type HostRef struct {
	DC, Host int
}

func (h HostRef) String() string { return fmt.Sprintf("dc%d/h%d", h.DC, h.Host) }

// ProxyRef routes a flow through a proxy host with the given scheme.
type ProxyRef struct {
	Scheme Scheme
	At     HostRef
}

// FlowSpec is one point-to-point transfer inside a Scenario.
type FlowSpec struct {
	// ID must be unique; IDs above 1<<20 are reserved for internal
	// relay legs.
	ID    netsim.FlowID
	Src   HostRef
	Dst   HostRef
	Bytes units.ByteSize
	// Start is the flow's start offset from scenario time zero.
	Start units.Duration
	// Via, when non-nil, relays the flow through a proxy.
	Via *ProxyRef
}

// Scenario is an arbitrary multi-flow workload on the two-DC fabric: the
// general form behind the MoE, storage, and quorum examples, and behind
// orchestrated multi-incast experiments.
type Scenario struct {
	Topo  topo.Config // zero value: §4.1 default
	Flows []FlowSpec
	Seed  int64

	MSS            units.ByteSize
	ProxyProcDelay rng.Distribution
	MaxSimTime     units.Duration

	// OnBuild, if set, runs after the fabric is built and before flows
	// are wired (trace/telemetry hook).
	OnBuild func(*topo.Network, *sim.Engine)
}

// ScenarioResult reports per-flow completion times.
type ScenarioResult struct {
	Done      map[netsim.FlowID]units.Duration
	Completed bool
	// Makespan is the completion time of the last flow.
	Makespan units.Duration
	Events   uint64
}

func (sc Scenario) withDefaults() Scenario {
	if sc.Topo.Spines == 0 {
		sc.Topo = topo.DefaultConfig()
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.MSS <= 0 {
		sc.MSS = transport.DefaultMSS
	}
	if sc.ProxyProcDelay == nil {
		sc.ProxyProcDelay = rng.Constant{D: 420 * units.Nanosecond}
	}
	if sc.MaxSimTime <= 0 {
		sc.MaxSimTime = 60 * units.Second
	}
	return sc
}

// Validate reports specification errors.
func (sc Scenario) Validate() error {
	sc = sc.withDefaults()
	hostsPerDC := sc.Topo.Leaves * sc.Topo.ServersPerLeaf
	okRef := func(h HostRef) bool {
		return (h.DC == 0 || h.DC == 1) && h.Host >= 0 && h.Host < hostsPerDC
	}
	seen := make(map[netsim.FlowID]bool, len(sc.Flows))
	if len(sc.Flows) == 0 {
		return fmt.Errorf("workload: scenario has no flows")
	}
	for i, f := range sc.Flows {
		switch {
		case f.ID == 0 || f.ID >= 1<<20:
			return fmt.Errorf("workload: flow %d: ID %d out of range [1, 1<<20)", i, f.ID)
		case seen[f.ID]:
			return fmt.Errorf("workload: duplicate flow ID %d", f.ID)
		case !okRef(f.Src) || !okRef(f.Dst):
			return fmt.Errorf("workload: flow %d: bad host ref %v->%v", i, f.Src, f.Dst)
		case f.Src == f.Dst:
			return fmt.Errorf("workload: flow %d: src == dst", i)
		case f.Bytes <= 0:
			return fmt.Errorf("workload: flow %d: no bytes", i)
		case f.Start < 0:
			return fmt.Errorf("workload: flow %d: negative start", i)
		case f.Via != nil && !okRef(f.Via.At):
			return fmt.Errorf("workload: flow %d: bad proxy ref %v", i, f.Via.At)
		case f.Via != nil && f.Via.Scheme == Baseline:
			return fmt.Errorf("workload: flow %d: Via with Baseline scheme is contradictory", i)
		case f.Via != nil && f.Via.Scheme != ProxyNaive && f.Via.Scheme != ProxyStreamlined:
			return fmt.Errorf("workload: flow %d: scenarios relay through naive or streamlined proxies, not %v", i, f.Via.Scheme)
		}
		seen[f.ID] = true
	}
	return nil
}

// RunScenario simulates the scenario once.
func RunScenario(sc Scenario) (*ScenarioResult, error) {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	cfg := sc.Topo
	cfg.Seed = sc.Seed
	// Streamlined relaying needs trimming in each proxy's datacenter.
	for _, f := range sc.Flows {
		if f.Via != nil && f.Via.Scheme == ProxyStreamlined {
			cfg.TrimDC[f.Via.At.DC] = true
		}
	}
	ep, err := buildEpoch(epochConfig{
		topo: cfg, obs: &ObsConfig{Disable: true}, onBuild: sc.OnBuild,
		until: units.Time(sc.MaxSimTime),
	})
	if err != nil {
		return nil, err
	}
	lw := legWiring{net: ep.net, src: rng.New(sc.Seed), mss: sc.MSS,
		iwScale: 1, procDelay: sc.ProxyProcDelay}

	// Fan-in counts size each flow's initial RTO: the first-window burst
	// of every flow converging on the same destination (or proxy) queues
	// behind one bottleneck link.
	fanIn := make(map[HostRef]int)
	for _, f := range sc.Flows {
		fanIn[f.Dst]++
		if f.Via != nil {
			fanIn[f.Via.At]++
		}
	}

	res := &ScenarioResult{Done: make(map[netsim.FlowID]units.Duration, len(sc.Flows))}
	remaining := len(sc.Flows)
	host := func(h HostRef) *netsim.Host { return ep.net.Hosts[h.DC][h.Host] }
	for _, f := range sc.Flows {
		ls := legSpec{
			flow: f.ID, snd: host(f.Src), rcv: host(f.Dst), bytes: f.Bytes,
			done: func(at units.Time) {
				res.Done[f.ID] = units.Duration(at)
				if units.Duration(at) > res.Makespan {
					res.Makespan = units.Duration(at)
				}
				remaining--
				if remaining == 0 {
					ep.stop()
				}
			},
		}
		lw.cohort = fanIn[f.Dst]
		if f.Via != nil {
			ls.via, ls.proxy = f.Via.Scheme, host(f.Via.At)
			lw.cohort = max(lw.cohort, fanIn[f.Via.At])
		}
		ep.e.Schedule(units.Time(f.Start), lw.wire(ls).start)
	}

	res.Events = ep.run()
	res.Completed = remaining == 0
	if !res.Completed {
		return res, fmt.Errorf("scenario incomplete after %v: %d flows unfinished",
			sc.MaxSimTime, remaining)
	}
	return res, nil
}

// RunScenarios simulates independent scenarios, fanned across parallel
// workers (0 or 1: serial; negative: one worker per CPU). Each scenario
// builds its own engine and RNG; results come back in the order of scs,
// byte-identical to running them serially. The error surfaced on failure is
// the lowest-indexed scenario's.
func RunScenarios(scs []Scenario, parallel int) ([]*ScenarioResult, error) {
	if parallel == 0 {
		parallel = 1
	}
	return runner.Map(parallel, len(scs), func(i int) (*ScenarioResult, error) {
		res, err := RunScenario(scs[i])
		if err != nil {
			return nil, fmt.Errorf("scenario %d: %w", i, err)
		}
		return res, nil
	})
}
