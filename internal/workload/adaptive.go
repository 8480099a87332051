package workload

// The adaptive scheme: flows start on the direct path under a small paced
// window while an online controller (internal/control) watches the two
// candidate bottlenecks and both paths' probe-measured quality. The moment
// the announced epoch provably overflows the receiver ToR — or the queue
// itself shows onset — the controller steers the epoch onto the streamlined
// proxy mid-flight. Re-steering is suffix-based when safe: each direct leg
// is frozen (its in-flight bytes finish on the direct path, with loss
// recovery) and only the un-sent suffix is re-homed, with a buffer-safe
// subset of flows kept direct so both paths carry payload in parallel. A
// degraded proxy (probe loss, queueing excess, its own queue onset) steers
// flows back onto the direct path, chaos.go-style. Every decision advances
// on virtual time from seed-derived randomness, so adaptive runs are as
// deterministic as static ones.

import (
	"fmt"

	"incastproxy/internal/control"
	"incastproxy/internal/netsim"
	"incastproxy/internal/sim"
	"incastproxy/internal/topo"
	"incastproxy/internal/units"
)

// adaptiveFlowID returns the flow ID of leg ord of flow i: the base ID for
// the first leg, then odd multiples of 1<<21 — a family disjoint from the
// probe flows (2<<21) and the cross-traffic flows (4<<21 and up).
func adaptiveFlowID(i, ord int) netsim.FlowID {
	f := netsim.FlowID(i + 1)
	if ord > 0 {
		f += netsim.FlowID(2*ord-1) << 21
	}
	return f
}

// adaptiveControl resolves the controller config for fabric cfg (zero
// SamplePeriod: control.DefaultConfig tuned to the fabric; zero
// OverflowBytes: the receiver ToR queue capacity) and validates it.
func adaptiveControl(cc control.Config, cfg topo.Config) (control.Config, error) {
	defaulted := cc.SamplePeriod == 0
	if defaulted {
		cc = control.DefaultConfig()
	}
	if cc.OverflowBytes == 0 {
		cc.OverflowBytes = cfg.TorQueue.Capacity
	}
	if defaulted {
		// Tune the depth backstop to this fabric: the queue must be well on
		// its way past the buffer budget before the depth arm declares onset
		// (announcements catch the first-window overflow long before any
		// queue shows it, so this arm only backstops unannounced traffic).
		// An epoch that fits the buffer transiently fills a good chunk of it
		// while the burst lands; onset below that would steer epochs the
		// direct path handles fine.
		cc.OnsetDepth = cc.OverflowBytes * 7 / 10
		if cc.DecayDepth >= cc.OnsetDepth {
			cc.DecayDepth = cc.OnsetDepth / 8
		}
	}
	return cc, cc.Validate()
}

// adaptiveEpoch is the adaptive scheme's decision record for one run.
type adaptiveEpoch struct {
	ctrl         *control.Controller
	rehomedFlows int
	rehomedBytes units.ByteSize
	keptDirect   int
}

// report copies the decision record onto rr; a nil record (a static
// scheme) leaves rr untouched.
func (a *adaptiveEpoch) report(rr *RunResult) {
	if a == nil {
		return
	}
	rr.Steers = a.ctrl.Steers()
	rr.Onsets = a.ctrl.Detector().Onsets()
	rr.FinalRoute = a.ctrl.Route().String()
	rr.RehomedFlows = a.rehomedFlows
	rr.RehomedBytes = a.rehomedBytes
	rr.KeptDirect = a.keptDirect
}

// startAdaptive sets up the adaptive epoch on DC0's engine: the controller,
// its queue signals and path probers, and the flows, which start direct
// under the paced window (at IncastDelay) and are re-steered by the
// controller's decisions.
func startAdaptive(ep *epoch, spec Spec, cc control.Config, lw legWiring, t *tally,
	recv, proxyHost *netsim.Host) *adaptiveEpoch {
	net := ep.net
	senders := net.Hosts[0][:spec.Degree]
	shares := splitBytes(spec.TotalBytes, spec.Degree)

	ctrl := control.NewController(cc, ep.ro.reg)
	ad := &adaptiveEpoch{ctrl: ctrl}
	// The controller records its own decision timeline: detector
	// onsets/decays and executed steers land on the trace's "control"
	// track, interleaved with the flow events.
	ctrl.SetTracer(ep.ro.tracer)
	recvSig := control.WatchPort("recv-tor", net.DownToRPort(recv), cc.HalfLife)
	proxySig := control.WatchPort("proxy-tor", net.DownToRPort(proxyHost), cc.HalfLife)
	ctrl.WatchReceiverQueue(recvSig)
	ctrl.WatchProxyQueue(proxySig)

	// Path probers: tiny data-band echo packets. The direct probe rides
	// the WAN to the receiver; the proxy probe senses the proxy ToR and
	// proxy liveness at intra-DC RTT. Timeouts scale with each path's base
	// RTT but must ride above the worst physically possible queueing — a
	// probe stuck behind a full bottleneck buffer is slow, not lost, and
	// counting it lost would declare the proxy dead the moment our own
	// steered epoch fills its ToR queue.
	drain := net.Cfg.LinkRate.TransmitTime(cc.OverflowBytes)
	probeTimeout := func(rtt units.Duration) units.Duration {
		to := 4 * rtt
		if floor := rtt + 2*drain; to < floor {
			to = floor
		}
		if to > cc.ProbeTimeout {
			to = cc.ProbeTimeout
		}
		return to
	}
	control.BindEcho(recv, control.ProbeFlowBase)
	control.NewProber(senders[0], recv.ID(), control.ProbeFlowBase,
		ctrl.DirectEstimator(), cc.ProbeEvery, probeTimeout(lw.rtt(senders[0], recv)),
		lw.src.Split(1001)).Start(ep.e, ep.until)
	control.BindEcho(proxyHost, control.ProbeFlowBase+1)
	control.NewProber(senders[0], proxyHost.ID(), control.ProbeFlowBase+1,
		ctrl.ProxyEstimator(), cc.ProbeEvery, probeTimeout(lw.rtt(senders[0], proxyHost)),
		lw.src.Split(1002)).Start(ep.e, ep.until)

	directIW := make([]units.ByteSize, spec.Degree)
	for i, snd := range senders {
		directIW[i] = lw.initWindow(snd, recv, lw.rtt(snd, recv))
	}

	// Per-flow epoch state: each flow is a chain of parts, and the flow
	// completes when every part has delivered the bytes it owns. A frozen
	// direct part owns exactly what it had sent at freeze time; a
	// re-homed part owns the remainder.
	type part struct {
		leg
		need units.ByteSize
		met  bool
	}
	type flowState struct {
		share    units.ByteSize
		parts    []*part
		viaProxy bool
	}
	flows := make([]*flowState, spec.Degree)
	for i := range flows {
		flows[i] = &flowState{share: shares[i]}
	}
	flowDone := make([]bool, spec.Degree)

	// A flow is done when its last part's receiver finishes, regardless
	// of which path carried the suffix.
	markDone := func(i int, at units.Time) {
		if flowDone[i] {
			return
		}
		flowDone[i] = true
		ctrl.FlowFinished(units.Duration(at)-spec.IncastDelay, flows[i].viaProxy)
		t.finish(at)
	}
	checkFlow := func(i int, at units.Time) {
		for _, p := range flows[i].parts {
			if !p.met {
				return
			}
		}
		markDone(i, at)
	}
	// live returns flow i's current part when the flow is unfinished and
	// on the direct path (viaProxy false) or the proxy (viaProxy true).
	live := func(i int, viaProxy bool) *part {
		fs := flows[i]
		if flowDone[i] || fs.viaProxy != viaProxy || len(fs.parts) == 0 {
			return nil
		}
		return fs.parts[len(fs.parts)-1]
	}

	// addPart creates and starts part number ord of flow i on the given
	// route. iwCap, when positive, caps the initial window (the paced
	// direct phase).
	addPart := func(e *sim.Engine, i, ord int, bytes units.ByteSize, viaProxy bool, iwCap units.ByteSize) {
		flow := adaptiveFlowID(i, ord)
		p := &part{need: bytes}
		ls := legSpec{
			flow: flow, snd: senders[i], rcv: recv, bytes: bytes, iwCap: iwCap,
			label: fmt.Sprintf("flow %d", flow),
			done: func(at units.Time) {
				p.met = true
				checkFlow(i, at)
			},
		}
		if viaProxy {
			ls.via, ls.proxy = ProxyStreamlined, proxyHost
		}
		if ord > 0 {
			ls.label += " (resteer)"
		}
		p.leg = ep.track(lw.wire(ls))
		flows[i].parts = append(flows[i].parts, p)
		p.s.Start(e)
	}

	// rehome abandons part p — everything its receiver has not yet got
	// moves — and reports the bytes to move.
	rehome := func(p *part) units.ByteSize {
		p.s.Abort()
		got := p.r.Bytes()
		remaining := p.need - got
		p.need = got
		p.met = true
		return remaining
	}

	// steerToProxy executes one direct->proxy upgrade across all live
	// direct flows. Returns whether anything actually moved (the
	// controller's veto protocol).
	steerToProxy := func(e *sim.Engine) bool {
		now := e.Now()
		// Suffix mode is safe when the receiver ToR has dropped nothing
		// and the bytes already exposed on the direct path comfortably
		// fit its buffer: the exposed prefix then completes on the
		// direct path while only un-sent suffixes move.
		var exposed units.ByteSize
		for i := range flows {
			if p := live(i, false); p != nil {
				exposed += p.s.SentBytes() - p.r.Bytes()
			}
		}
		safeBudget := units.ByteSize(cc.SafeDepthFrac * float64(cc.OverflowBytes))
		suffix := recvSig.Drops() == 0 && exposed+recvSig.RawDepth() < safeBudget

		moved := 0
		var kept units.ByteSize
		for i, fs := range flows {
			p := live(i, false)
			if p == nil {
				continue
			}
			// Partial rebalance: keep a prefix of flows direct while
			// their whole shares fit the buffer budget. The kept
			// subset streams over the otherwise-abandoned direct path
			// in parallel with the proxied rest.
			if suffix && kept+fs.share <= safeBudget {
				kept += fs.share
				ad.keptDirect++
				p.s.Boost(e, directIW[i])
				continue
			}
			var remaining units.ByteSize
			if suffix {
				sent := p.s.SentBytes()
				remaining = p.need - sent
				if remaining <= 0 {
					continue // fully exposed; nothing left to move
				}
				p.s.FreezeNew()
				p.need = sent
				if p.r.Bytes() >= p.need {
					p.met = true
				} else {
					p.r.OnData = func(e2 *sim.Engine, _ *netsim.Packet) {
						if !p.met && p.r.Bytes() >= p.need {
							p.met = true
							checkFlow(i, e2.Now())
						}
					}
				}
			} else if remaining = rehome(p); remaining <= 0 {
				checkFlow(i, now)
				continue
			}
			fs.viaProxy = true
			addPart(e, i, len(fs.parts), remaining, true, 0)
			ad.rehomedFlows++
			ad.rehomedBytes += remaining
			moved++
		}
		return moved > 0
	}

	// steerToDirect downgrades every proxied flow back onto the direct
	// path (chaos.go's conservative re-homing: the proxy path just proved
	// lossy, so nothing in flight is trusted).
	steerToDirect := func(e *sim.Engine) bool {
		now := e.Now()
		moved := 0
		for i, fs := range flows {
			p := live(i, true)
			if p == nil {
				continue
			}
			remaining := rehome(p)
			fs.viaProxy = false
			if remaining <= 0 {
				checkFlow(i, now)
				continue
			}
			addPart(e, i, len(fs.parts), remaining, false, 0)
			ad.rehomedFlows++
			ad.rehomedBytes += remaining
			moved++
		}
		return moved > 0
	}

	ctrl.OnSteer(func(e *sim.Engine, a control.Action, reason string) bool {
		// The controller's tracer records acted steers; this callback
		// only moves the flows.
		switch a {
		case control.SteerProxy:
			return steerToProxy(e)
		case control.SteerDirect:
			return steerToDirect(e)
		}
		return false
	})
	ctrl.Start(ep.e, ep.until)

	// The epoch itself: every flow announces its share to the controller
	// and starts direct under the paced window; pacing is released two
	// ticks later for any flow the controller left on the direct path.
	startEpoch := func(e *sim.Engine) {
		for i := range flows {
			ctrl.FlowStarted(flows[i].share)
			addPart(e, i, 0, flows[i].share, false, cc.PaceWindow)
		}
		e.Schedule(e.Now().Add(2*cc.SamplePeriod), func(e *sim.Engine) {
			for i := range flows {
				if p := live(i, false); p != nil {
					p.s.Boost(e, directIW[i])
				}
			}
		})
	}
	if spec.IncastDelay > 0 {
		ep.e.Schedule(units.Time(spec.IncastDelay), startEpoch)
	} else {
		startEpoch(ep.e)
	}
	return ad
}
