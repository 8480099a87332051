package main

// The live data path: one in-process relay server and a byte-counting sink
// on loopback. Traffic crosses the host's loopback, not a real link.

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"incastproxy/internal/obs"
	"incastproxy/internal/relay"
)

const (
	// maxDials caps the dials of a run's phase: every dial leaves two
	// loopback sockets in TIME_WAIT, so an uncapped closed loop would run
	// the host out of ephemeral ports. 4000 dials still leave 40 beyond
	// the p99.
	maxDials = 4000
	// relayRounds interleaves dialing and streaming, so both sample the
	// whole phase rather than one stretch of it; the host's speed drifts
	// over seconds.
	relayRounds = 10
	// spliceConns long-lived splices stream spliceChunk writes.
	spliceConns = 2
	spliceChunk = 64 << 10
	// spliceWindow is the throughput sampling window; the reported
	// throughput is the median window.
	spliceWindow = 100 * time.Millisecond
)

// sinkBufs recycles the sink's read buffers, so the per-dial allocation
// figures count the relay's allocations, not the sink's.
var sinkBufs = sync.Pool{New: func() any { return new([spliceChunk]byte) }}

// sink is the relay's target: it accepts connections and counts the bytes
// that arrive on them.
type sink struct {
	l     net.Listener
	bytes atomic.Int64
	wg    sync.WaitGroup // the accept loop and every reader
}

func startSink() (*sink, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &sink{l: l}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

func (s *sink) accept() {
	defer s.wg.Done()
	for {
		c, err := s.l.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer c.Close()
			buf := sinkBufs.Get().(*[spliceChunk]byte)
			defer sinkBufs.Put(buf)
			for {
				n, err := c.Read(buf[:])
				s.bytes.Add(int64(n))
				if err != nil {
					return
				}
			}
		}()
	}
}

// close stops accepting and waits for every reader; the relay must have
// closed its side first.
func (s *sink) close() {
	s.l.Close()
	s.wg.Wait()
}

// relayRig is a serving relay in front of a sink.
type relayRig struct {
	sink   *sink
	srv    *relay.Server
	reg    *obs.Registry
	addr   string
	served chan error
}

func startRig() (*relayRig, error) {
	sk, err := startSink()
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sk.close()
		return nil, err
	}
	reg := obs.NewRegistry()
	r := &relayRig{
		sink:   sk,
		srv:    relay.New(relay.Config{Registry: reg}),
		reg:    reg,
		addr:   l.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { r.served <- r.srv.Serve(l) }()
	return r, nil
}

func (r *relayRig) dial() (net.Conn, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return relay.DialViaRelay(ctx, nil, r.addr, r.sink.l.Addr().String())
}

// close stops the relay, waits for Serve to return, then stops the sink.
func (r *relayRig) close() {
	r.srv.Close()
	<-r.served
	r.sink.close()
}

func (r *relayRig) counter(name string) float64 {
	v, _ := r.reg.Snapshot().Get(name)
	return float64(v)
}

// dialPhase is a closed loop of one client dialing through the relay with
// no payload, timing each dial to its DIAL_OK verdict.
func (r *relayRig) dialPhase(p params, budget time.Duration, limit int) opStats {
	return loop(budget, limit, func() (time.Duration, bool) {
		var c net.Conn
		var err error
		dt := timed(wallTime, func() { c, err = r.dial() })
		if err != nil {
			fmt.Fprintf(p.log, "perfbench: relay-loopback: dial: %v\n", err)
			return dt, false
		}
		c.Close()
		return dt, true
	})
}

// splicePhase streams payload through spliceConns long-lived splices for d
// and returns the sink's throughput in each spliceWindow, in bytes per
// second. The streams fail unless the sink receives exactly the bytes
// written.
func (r *relayRig) splicePhase(p params, d time.Duration, payload []byte) (rates []float64, st opStats) {
	st.attempted = spliceConns
	conns := make([]net.Conn, 0, spliceConns)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < spliceConns; i++ {
		c, err := r.dial()
		if err != nil {
			fmt.Fprintf(p.log, "perfbench: relay-loopback: splice dial: %v\n", err)
			st.failed = spliceConns
			return nil, st
		}
		conns = append(conns, c)
	}
	// A stalled relay fails the streams instead of hanging the run.
	for _, c := range conns {
		if err := c.SetWriteDeadline(time.Now().Add(d + 10*time.Second)); err != nil {
			fmt.Fprintf(p.log, "perfbench: relay-loopback: splice deadline: %v\n", err)
			st.failed = spliceConns
			return nil, st
		}
	}
	base := r.sink.bytes.Load()
	var written [spliceConns]int64
	var werr [spliceConns]error
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c net.Conn) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n, err := c.Write(payload)
				written[i] += int64(n)
				if err != nil {
					werr[i] = err
					return
				}
			}
		}(i, c)
	}
	start := time.Now()
	prevT, prevB := start, base
	for time.Since(start) < d {
		time.Sleep(spliceWindow)
		now, b := time.Now(), r.sink.bytes.Load()
		rates = append(rates, float64(b-prevB)/now.Sub(prevT).Seconds())
		st.memMB = append(st.memMB, heldMB())
		prevT, prevB = now, b
	}
	close(stop)
	wg.Wait()
	var total int64
	for i, c := range conns {
		c.Close()
		total += written[i]
		if werr[i] != nil {
			fmt.Fprintf(p.log, "perfbench: relay-loopback: splice write: %v\n", werr[i])
			st.failed++
		}
	}
	conns = nil
	// The relay forwards each close after the bytes before it; wait for
	// the sink to drain them.
	deadline := time.Now().Add(10 * time.Second)
	for r.sink.bytes.Load()-base < total && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := r.sink.bytes.Load() - base; got != total {
		fmt.Fprintf(p.log, "perfbench: relay-loopback: sink received %d bytes, %d written\n", got, total)
		st.failed = spliceConns
	}
	return rates, st
}

func runRelayLoopback(p params) (*report, error) {
	payload := make([]byte, spliceChunk)
	for i := 0; i < len(payload); i += 8 {
		v := splitmix(p.seed, uint64(i))
		for j := 0; j < 8; j++ {
			payload[i+j] = byte(v >> (8 * j))
		}
	}
	// Set-up is server start through the first admitted dial; the rig of
	// the last repetition serves the run.
	var rig *relayRig
	setup, err := medianSetup(wallTime, func() {
		rig.close()
		rig = nil
	}, func() error {
		r, err := startRig()
		if err != nil {
			return err
		}
		rig = r
		c, err := rig.dial()
		if err != nil {
			return fmt.Errorf("first dial: %w", err)
		}
		return c.Close()
	})
	if rig != nil {
		defer rig.close()
	}
	if err != nil {
		return nil, err
	}

	// A phase runs relayRounds rounds. Each dials for up to a fortieth of
	// the phase (at most maxDials over the phase), then streams for the
	// rest of its tenth. allocs counts the dials' runtime work alone.
	type phaseStats struct {
		dials, all opStats
		rates      []float64
		allocs     rtDelta
	}
	phase := func(budget time.Duration) phaseStats {
		var ps phaseStats
		start := time.Now()
		for i := 1; i <= relayRounds; i++ {
			rt0 := readRuntime()
			d := rig.dialPhase(p, budget/(4*relayRounds), maxDials/relayRounds)
			rt := rt0.to(readRuntime())
			ps.allocs.allocObjects += rt.allocObjects
			ps.allocs.allocBytes += rt.allocBytes
			ps.dials.add(d)
			end := start.Add(budget * time.Duration(i) / relayRounds)
			rates, st := rig.splicePhase(p, time.Until(end), payload)
			ps.rates = append(ps.rates, rates...)
			ps.all.add(st)
		}
		ps.all.add(ps.dials)
		return ps
	}

	if !p.trace {
		ps := phase(p.budget)
		return &report{
			attempted: ps.all.attempted,
			failed:    ps.all.failed,
			metrics: map[string]float64{
				"setup_s":  setup.Seconds(),
				"op_ms":    ms(quantile(ps.dials.times, 0.5)),
				"mb_per_s": quantile(ps.rates, 0.5) / 1e6,
				"mem_MB":   quantile(ps.all.memMB, 0.5),
			},
		}, nil
	}

	m := map[string]float64{}
	rt0 := readRuntime()
	a := phase(p.budget / 2)
	gc := rt0.to(readRuntime()).gcShare
	prof, err := startProfiler()
	if err != nil {
		return nil, err
	}
	b := phase(p.budget / 2)
	lp, err := prof.stop()
	if err != nil {
		return nil, err
	}
	lp.put(m)
	m["runtime.gc_cpu_share"] = gc
	m["profile_overhead"] = ratio(float64(quantile(b.dials.times, 0.5)), float64(quantile(a.dials.times, 0.5)))
	m["relay.dial_p99_ms"] = ms(quantile(a.dials.times, 0.99))
	m["relay.allocs_per_dial"] = ratio(a.allocs.allocObjects, float64(a.dials.attempted))
	m["relay.alloc_bytes_per_dial"] = ratio(a.allocs.allocBytes, float64(a.dials.attempted))
	accepted := rig.counter("relay_accepted_conns_total")
	shed := rig.counter("relay_shed_busy_total")
	m["relay.admitted"] = accepted - shed - rig.counter("relay_shed_goingaway_total")
	m["relay.shed_busy"] = shed
	m["relay.dial_errors"] = rig.counter("relay_dial_errors_total")
	a.all.add(b.all)
	return &report{attempted: a.all.attempted, failed: a.all.failed, metrics: m}, nil
}
