package workload

// The one epoch runtime. Every run path — the static incast schemes, the
// adaptive controller, chaos failover, and scenarios — builds its fabric and
// runs its events through buildEpoch/epoch.run on a sim.ShardGroup, and wires
// every transfer through legWiring. A single-engine run is a 1-shard group.
//
// The fabric is partitioned per topo.PlanShards (Shards == 0 plans one
// shard; otherwise each DC is a shard and backbones split further) with the
// long-haul propagation delay as the conservative lookahead. Everything a
// workload touches on the sending side — senders, proxies, cross traffic,
// fault injection, the adaptive controller and its probers — lives on DC0's
// engine; the receivers' events run on DC1's shard, reached only by packets
// through the group's deterministic handoff queues. Results are
// byte-identical at every shard and worker count.

import (
	"fmt"

	"incastproxy/internal/faults"
	"incastproxy/internal/netsim"
	"incastproxy/internal/proxy"
	"incastproxy/internal/rng"
	"incastproxy/internal/sim"
	"incastproxy/internal/stats"
	"incastproxy/internal/topo"
	"incastproxy/internal/transport"
	"incastproxy/internal/units"
)

// epochConfig describes one epoch's fabric, runtime, and observability.
type epochConfig struct {
	topo    topo.Config // Seed and TrimDC already set
	shards  int         // 0: one shard with the exact stop (see epoch.stop)
	workers int
	obs     *ObsConfig
	onBuild func(*topo.Network, *sim.Engine)
	until   units.Time
}

// epoch is one built fabric and its run-time state.
type epoch struct {
	g     *sim.ShardGroup
	e     *sim.Engine // DC0's engine: the sending side schedules here
	net   *topo.Network
	ro    *runObs
	until units.Time
	exact bool

	// senders and rxs are the workload's transport endpoints, exported
	// through the run's registry; they grow as flows are (re-)homed.
	senders []*transport.Sender
	rxs     []*transport.Receiver
}

// buildEpoch plans the shards, builds the fabric on DC0's engine, binds the
// cut links, runs the OnBuild hook, and wires observability.
func buildEpoch(c epochConfig) (*epoch, error) {
	shards := c.shards
	if shards == 0 {
		shards = 1
	}
	plan, err := topo.PlanShards(c.topo, shards)
	if err != nil {
		return nil, err
	}
	g := plan.NewGroup(c.workers)
	e := g.Engine(plan.DCShard(0))
	net := topo.Build(e, c.topo)
	topo.BindShards(net, g, plan)
	if c.onBuild != nil {
		c.onBuild(net, e)
	}
	ep := &epoch{g: g, e: e, net: net, ro: newRunObs(c.obs), until: c.until, exact: c.shards == 0}
	ep.ro.wire(g, net, &ep.senders, &ep.rxs)
	return ep, nil
}

// watch exports the named ports' queue counters and, when tracing, their
// occupancy tracks. Call right after buildEpoch, before any workload.
func (ep *epoch) watch(ports map[string]*netsim.Port) {
	ep.ro.watchPorts(ep.e, ep.until, ports)
}

// stop ends the run once its workload is done. A group stop is quantized to
// the barrier round, which keeps the stop point identical at every shard and
// worker count. An unsharded epoch (Shards == 0) also stops its engine, so
// the run halts right after the completing event as a lone engine would.
func (ep *epoch) stop() {
	ep.g.RequestStop()
	if ep.exact {
		ep.e.Stop()
	}
}

// run executes the epoch until its deadline or stop and returns the number
// of events executed.
func (ep *epoch) run() uint64 {
	ep.g.RunUntil(ep.until)
	return ep.g.Processed()
}

// track counts a workload leg in the run's sender and receiver stats.
func (ep *epoch) track(l leg) leg {
	ep.senders = append(ep.senders, l.s)
	ep.rxs = append(ep.rxs, l.r)
	return l
}

// tally counts finished flows receiver-side and stops the epoch when all of
// them are done. Flow completion times are measured from launch: the run
// stops the instant the last receiver finishes, so the senders never see
// their final ACKs. The bounded sample (seeded from the run seed) keeps
// 10k-sender epochs in constant memory; receivers finish in deterministic
// event order, so it sees the same observations at every shard count.
type tally struct {
	ep     *epoch
	want   int
	done   int
	last   units.Time
	launch units.Time
	fcts   *stats.Sample
}

// fctReservoirCap bounds the per-run FCT sample: above this many flows the
// percentile summary becomes a deterministic uniform-reservoir estimate.
const fctReservoirCap = 4096

func newTally(ep *epoch, want int, launch units.Duration, seed int64) *tally {
	return &tally{ep: ep, want: want, launch: units.Time(launch), fcts: stats.NewBounded(fctReservoirCap, seed)}
}

// finish records one flow completing at at.
func (t *tally) finish(at units.Time) {
	t.done++
	if at > t.last {
		t.last = at
	}
	t.fcts.AddDuration(at.Sub(t.launch))
	if t.done == t.want {
		// Nothing left worth simulating (stray timers would only
		// re-fire).
		t.ep.stop()
	}
}

// result starts the run's RunResult from the tally.
func (t *tally) result(events uint64) RunResult {
	return RunResult{
		ICT:       units.Duration(t.last),
		Completed: t.done == t.want,
		Events:    events,
		FlowFCT:   stats.SummarizeDurations(t.fcts),
	}
}

// collectRunStats fills rr's sender aggregates, bottleneck telemetry, and
// inferring-proxy error counters from the finished epoch.
func collectRunStats(rr *RunResult, ep *epoch, recv, proxyHost *netsim.Host,
	inferGroup *proxy.InferringGroup) {
	for _, s := range ep.senders {
		rr.Timeouts += s.Stats.Timeouts
		rr.Retransmits += s.Stats.Retransmits
		rr.Nacks += s.Stats.Nacks
		rr.MarkedAcks += s.Stats.MarkedAcks
		rr.PktsSent += s.Stats.PktsSent
	}
	rst := ep.net.DownToRPort(recv).Stats()
	pst := ep.net.DownToRPort(proxyHost).Stats()
	rr.ReceiverToRMaxQueue = rst.MaxBytes
	rr.ReceiverToRDrops = rst.Dropped
	rr.ProxyToRMaxQueue = pst.MaxBytes
	rr.ProxyToRTrims = pst.Trimmed
	rr.ProxyToRDrops = pst.Dropped
	if inferGroup != nil {
		rr.ProxyFalseNacks = inferGroup.Stats.FalseNacks
	}
}

// legWiring builds transport endpoints on one fabric. Every transfer of
// every run path is a leg wired here, so all of them share one transport
// config and one initial-RTO rule.
type legWiring struct {
	net       *topo.Network
	src       *rng.Source // proxy randomness, split per flow in wiring order
	tel       *transport.Telemetry
	mss       units.ByteSize
	iwScale   float64 // initial window in path BDPs
	gemini    bool
	cohort    int // flows whose first windows converge on one bottleneck
	procDelay rng.Distribution
	noEarly   bool
	infer     *proxy.InferringGroup // set for ProxyInferring legs
}

// newLegWiring returns the wiring for spec's flows.
func newLegWiring(ep *epoch, spec Spec, src *rng.Source) legWiring {
	iwScale := spec.IWScale
	if iwScale <= 0 {
		iwScale = 1
	}
	return legWiring{
		net: ep.net, src: src, tel: ep.ro.tel, mss: spec.MSS,
		iwScale: iwScale, gemini: spec.Gemini, cohort: spec.Degree,
		procDelay: spec.ProxyProcDelay, noEarly: spec.NoEarlyFeedback,
	}
}

// legSpec is one transfer to wire.
type legSpec struct {
	flow     netsim.FlowID
	snd, rcv *netsim.Host
	bytes    units.ByteSize
	via      Scheme       // Baseline: direct
	proxy    *netsim.Host // relay host when via is a proxy scheme
	iwCap    units.ByteSize
	label    string
	done     func(units.Time)
}

// leg is one wired transfer.
type leg struct {
	s     *transport.Sender
	r     *transport.Receiver
	relay *proxy.Naive // ProxyNaive only: the proxy's downstream relay
}

// start launches the leg (the naive relay first).
func (l leg) start(e *sim.Engine) {
	if l.relay != nil {
		l.relay.Start(e)
	}
	l.s.Start(e)
}

// rtt is the base round trip from a to b for a data packet and its ACK.
func (lw legWiring) rtt(a, b *netsim.Host) units.Duration {
	return lw.net.PathRTT(a, b, lw.mss, netsim.ControlSize)
}

// initWindow is iwScale bandwidth-delay products of the a→b bottleneck.
func (lw legWiring) initWindow(a, b *netsim.Host, rtt units.Duration) units.ByteSize {
	return units.ByteSize(float64(lw.net.BottleneckRate(a, b).BDP(rtt)) * lw.iwScale)
}

// config is a leg's transport config for base RTT rtt and initial window
// iw. The first RTT a sender observes includes the queueing its own cohort
// inflicts: up to cohort initial windows draining through one bottleneck
// link. The initial RTO must exceed that, or timers fire spuriously before
// the first RTT sample arrives.
func (lw legWiring) config(rtt units.Duration, iw units.ByteSize) transport.Config {
	return transport.Config{
		MSS:         lw.mss,
		InitWindow:  iw,
		ExpectedRTT: rtt,
		InitRTO:     3*rtt + lw.net.Cfg.LinkRate.TransmitTime(units.ByteSize(lw.cohort)*iw),
		GeminiMode:  lw.gemini,
	}
}

// wire installs ls's endpoints (and its proxy, if any) without starting
// them. A direct leg runs sender → receiver; streamlined and inferring legs
// run one connection routed through the proxy; a naive leg is two
// connections relayed at the proxy, the downstream one on flow ID
// flow+1<<20.
func (lw legWiring) wire(ls legSpec) leg {
	snd, rcv, prx := ls.snd, ls.rcv, ls.proxy
	var l leg
	switch ls.via {
	case Baseline:
		rtt := lw.rtt(snd, rcv)
		c := lw.config(rtt, capIW(lw.initWindow(snd, rcv, rtt), ls.iwCap))
		l.r = transport.NewReceiver(rcv, ls.flow, snd.ID(), ls.bytes, ls.done)
		rcv.Bind(ls.flow, l.r)
		l.s = transport.NewSender(snd, ls.flow, rcv.ID(), 0, ls.bytes, c, nil)

	case ProxyStreamlined, ProxyInferring:
		rtt := lw.rtt(snd, prx) + lw.rtt(prx, rcv)
		c := lw.config(rtt, capIW(lw.initWindow(snd, rcv, rtt), ls.iwCap))
		if ls.via == ProxyInferring {
			lw.infer.AddFlow(ls.flow, snd.ID(), rcv.ID())
		} else {
			p := proxy.NewStreamlined(prx, ls.flow, snd.ID(), rcv.ID(),
				lw.procDelay, lw.src.Split(int64(ls.flow)))
			p.NoEarlyNack = lw.noEarly
			prx.Bind(ls.flow, p)
		}
		l.r = transport.NewReceiver(rcv, ls.flow, prx.ID(), ls.bytes, ls.done)
		rcv.Bind(ls.flow, l.r)
		l.s = transport.NewSender(snd, ls.flow, prx.ID(), rcv.ID(), ls.bytes, c, nil)

	case ProxyNaive:
		down := ls.flow + netsim.FlowID(1)<<20
		rttUp, rttDown := lw.rtt(snd, prx), lw.rtt(prx, rcv)
		up := lw.config(rttUp, lw.initWindow(snd, prx, rttUp))
		l.relay = proxy.NewNaive(prx, ls.flow, down, snd.ID(), rcv.ID(), proxy.NaiveConfig{
			Total:   ls.bytes,
			DownCfg: lw.config(rttDown, lw.initWindow(prx, rcv, rttDown)),
		})
		l.r = transport.NewReceiver(rcv, down, prx.ID(), ls.bytes, ls.done)
		rcv.Bind(down, l.r)
		l.s = transport.NewSender(snd, ls.flow, prx.ID(), 0, ls.bytes, up, nil)

	default:
		panic(fmt.Sprintf("workload: no leg wiring for scheme %v", ls.via))
	}
	l.s.Attach(lw.tel, ls.label)
	snd.Bind(ls.flow, l.s)
	return l
}

// capIW caps an initial window at cap when cap is positive.
func capIW(iw, cap units.ByteSize) units.ByteSize {
	if cap > 0 && iw > cap {
		return cap
	}
	return iw
}

// crossFlowBase offsets cross-traffic flow IDs above every other ID family
// (data flows low, naive down-flows at 1<<20, re-steer legs at odd multiples
// of 1<<21, probes at control.ProbeFlowBase = 1<<22).
const crossFlowBase netsim.FlowID = 1 << 23

// startCrossTraffic launches spec.CrossTraffic background flows from idle
// DC0 hosts into the proxy host. They are environment, not workload: plain
// 1-BDP windows sized for their own cohort, and kept out of the run's
// aggregate sender stats.
func (ep *epoch) startCrossTraffic(spec Spec, lw legWiring, proxyHost *netsim.Host) error {
	ct := spec.CrossTraffic
	if ct.Flows <= 0 {
		return nil
	}
	if ct.Bytes <= 0 {
		return fmt.Errorf("workload: cross-traffic flows need Bytes > 0")
	}
	hostsDC0 := ep.net.Hosts[0]
	avail := hostsDC0[spec.Degree : len(hostsDC0)-1]
	if ct.Flows > len(avail) {
		return fmt.Errorf("workload: %d cross-traffic flows need idle hosts, only %d available",
			ct.Flows, len(avail))
	}
	lw.iwScale, lw.gemini, lw.cohort = 1, false, ct.Flows
	for j := 0; j < ct.Flows; j++ {
		flow := crossFlowBase + netsim.FlowID(j+1)
		l := lw.wire(legSpec{flow: flow, snd: avail[j], rcv: proxyHost, bytes: ct.Bytes,
			label: fmt.Sprintf("cross %d", flow)})
		if at := ct.StartAt + units.Duration(j)*ct.Stagger; at > 0 {
			ep.e.Schedule(units.Time(at), l.start)
		} else {
			l.start(ep.e)
		}
	}
	return nil
}

// injectProxyFaults arms the spec's proxy-crash fault, if any.
func (ep *epoch) injectProxyFaults(spec Spec, proxyHost *netsim.Host, seed int64) {
	if spec.ProxyCrashAt <= 0 {
		return
	}
	ep.newInjector(seed).CrashHost(proxyHost, units.Time(spec.ProxyCrashAt), spec.ProxyRestartAfter)
}

// newInjector returns a fault injector on DC0's engine, reporting into the
// run's tracer and registry.
func (ep *epoch) newInjector(seed int64) *faults.Injector {
	inj := faults.New(ep.e, seed)
	inj.SetTracer(ep.ro.tracer)
	inj.Instrument(ep.ro.reg)
	return inj
}
