package workload

// Per-run observability wiring shared by the incast and chaos runners: each
// run gets its own registry (multi-run specs would otherwise double-count)
// and, when requested, its own tracer. The resulting manifest — seed, config
// fingerprint, full metric snapshot — rides back on the RunResult so figures
// and result files are self-describing.

import (
	"fmt"
	"sort"

	"incastproxy/internal/netsim"
	"incastproxy/internal/obs"
	"incastproxy/internal/sim"
	"incastproxy/internal/topo"
	"incastproxy/internal/transport"
	"incastproxy/internal/units"
)

// ObsConfig controls a run's observability. The zero value (and a nil
// pointer) means: metrics registry on, tracing off.
type ObsConfig struct {
	// Disable turns the metrics registry off entirely. Used by benchmarks
	// measuring the uninstrumented baseline; everything downstream
	// (Manifest, Trace) is nil.
	Disable bool
	// Trace records flow lifecycle and queue events to a Tracer returned
	// on RunResult.Trace, exportable as CSV or Chrome trace JSON.
	Trace bool
	// QueueSampleEvery sets the virtual-time period of down-ToR queue
	// occupancy samples on the trace's counter tracks (default 50 us;
	// only active when Trace is set).
	QueueSampleEvery units.Duration
}

func (oc *ObsConfig) withDefaults() ObsConfig {
	var c ObsConfig
	if oc != nil {
		c = *oc
	}
	if c.QueueSampleEvery <= 0 {
		c.QueueSampleEvery = 50 * units.Microsecond
	}
	return c
}

// runObs bundles one run's live observability objects.
type runObs struct {
	cfg    ObsConfig
	reg    *obs.Registry // nil when disabled
	tracer *obs.Tracer   // nil unless tracing
	tel    *transport.Telemetry
}

// newRunObs builds the per-run registry and tracer per the config.
func newRunObs(oc *ObsConfig) *runObs {
	ro := &runObs{cfg: oc.withDefaults()}
	if ro.cfg.Disable {
		return ro // all-nil: every recording call no-ops
	}
	ro.reg = obs.NewRegistry()
	if ro.cfg.Trace {
		ro.tracer = obs.NewTracer()
	}
	return ro
}

// wire instruments the shard group, the fabric, and the (growing) sender
// and receiver slices. Call once after topo.Build, before flows start. The
// group exports the sim_* series; every value it exports is a pure function
// of the simulation content, not of the partition, so manifests stay
// byte-identical across shard and worker counts.
func (ro *runObs) wire(g *sim.ShardGroup, net *topo.Network,
	senders *[]*transport.Sender, receivers *[]*transport.Receiver) {
	g.Instrument(ro.reg)
	net.Instrument(ro.reg)
	net.SetTracer(ro.tracer)
	ro.tel = transport.NewTelemetry(ro.reg, ro.tracer)
	transport.InstrumentSenders(ro.reg, senders)
	transport.InstrumentReceivers(ro.reg, receivers)
}

// watchPorts exports the named ports' per-port queue counters and, when
// tracing, starts a periodic occupancy sampler on each (counter tracks named
// "queue <name>"). until bounds the sampler in virtual time.
func (ro *runObs) watchPorts(e *sim.Engine, until units.Time, ports map[string]*netsim.Port) {
	// Sort the names: map iteration order is random, and the samplers'
	// initial Count events must land in the trace deterministically.
	names := make([]string, 0, len(ports))
	for name := range ports {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ports[name].Instrument(ro.reg)
	}
	if ro.tracer == nil {
		return
	}
	for _, name := range names {
		name, p := name, ports[name]
		var sample func(*sim.Engine)
		sample = func(e *sim.Engine) {
			ro.tracer.Count(e.Now(), "queue", "queue "+name, 0,
				float64(p.QueuedBytes()))
			if next := e.Now().Add(ro.cfg.QueueSampleEvery); next <= until {
				e.Schedule(next, sample)
			}
		}
		sample(e)
	}
}

// manifest assembles the run's manifest from the final registry state.
// Returns nil when the registry is disabled.
func (ro *runObs) manifest(seed int64, config string) *obs.Manifest {
	if ro.reg == nil {
		return nil
	}
	return obs.NewManifest(seed, config, ro.reg.Snapshot())
}

// fingerprintString renders the spec for config hashing. Func-valued and
// observability fields are excluded (funcs print as nondeterministic
// pointers, and turning tracing on must not change the config identity), as
// is the seed: it rides separately on Manifest.Seed, so runs of one
// configuration share a hash across seeds. Parallel, Shards, and
// ShardWorkers are excluded too: how many workers or event shards executed
// the trials is an execution detail, and serial, parallel, and sharded runs
// of one spec must produce byte-identical manifests.
func (s Spec) fingerprintString() string {
	return fmt.Sprintf("%+v", s.identity())
}

// identity is s without the fields fingerprintString excludes.
func (s Spec) identity() Spec {
	s.OnBuild = nil
	s.ProxyProcDelay = nil
	s.Obs = nil
	s.Seed = 0
	s.Parallel = 0
	s.Shards = 0
	s.ShardWorkers = 0
	return s
}

// fingerprintString renders the chaos spec for config hashing, with the
// embedded incast reduced as in Spec.fingerprintString.
func (spec ChaosSpec) fingerprintString() string {
	spec.Incast = spec.Incast.identity()
	return fmt.Sprintf("%+v", spec)
}
