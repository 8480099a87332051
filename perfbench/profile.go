package main

// Per-layer attribution from outside the program: a CPU profile and an
// allocation profile taken around the profiled half of a run, with every
// sample charged to a layer by the package of the function it landed in.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
)

// layers are the program's layers, named after its modules. "other" holds
// samples in the benchmark itself, the profiler, and standard-library code
// with no repository caller on the stack.
var layers = []string{
	"sim", "netsim", "topo", "transport", "proxy", "control", "model",
	"workload", "obs", "relay", "wire", "runtime", "other",
}

// moduleLayer maps each package of the module (by import path below the
// module root) to its layer. Packages that are not themselves a layer join
// the layer whose work they do; the utility packages every layer calls are
// charged to their caller (see callerCharged).
var moduleLayer = map[string]string{
	"":                      "workload", // the public API and figure sweeps
	"internal/chaosnet":     "relay",    // fault proxy around the live relay
	"internal/cliutil":      "workload", // command-line helpers
	"internal/control":      "control",
	"internal/declare":      "control", // declarative placement front end
	"internal/detect":       "proxy",   // the inferring proxy's loss tracker
	"internal/faults":       "netsim",  // link and host fault hooks
	"internal/hoststack":    "proxy",   // host-stack proxy overhead models
	"internal/lan":          "relay",   // in-memory relay fabric
	"internal/lint":         "workload",
	"internal/model":        "model",
	"internal/netsim":       "netsim",
	"internal/obs":          "obs",
	"internal/orchestrator": "control",
	"internal/proxy":        "proxy",
	"internal/relay":        "relay",
	"internal/runner":       "workload", // the run worker pool
	"internal/sim":          "sim",
	"internal/topo":         "topo",
	"internal/trace":        "obs",
	"internal/transport":    "transport",
	"internal/wire":         "wire",
	"internal/workload":     "workload",
}

// callerCharged are the module's utility packages: quantities and time
// arithmetic, seeded random draws, and summary statistics. Every layer calls
// them, so their samples are charged to the calling layer, like
// standard-library code.
var callerCharged = map[string]bool{
	"internal/rng":   true,
	"internal/stats": true,
	"internal/units": true,
}

const modulePath = "incastproxy"

// benchPackage is the benchmark's own package as the profile names it.
const benchPackage = "main"

// pkgOf returns the import path of a symbolized function name such as
// "incastproxy/internal/sim.(*Engine).RunUntil" or "container/heap.Pop".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// directLayer is the layer a function belongs to by its own package, or ""
// for runtime, standard-library and benchmark code.
func directLayer(pkg string) string {
	if pkg == "container/heap" {
		return "sim" // the event heap
	}
	if pkg == modulePath {
		return moduleLayer[""]
	}
	if rest, ok := strings.CutPrefix(pkg, modulePath+"/"); ok && !callerCharged[rest] {
		return moduleLayer[rest]
	}
	return ""
}

func isRuntimePkg(pkg string) bool {
	if pkg == "runtime/pprof" || pkg == "runtime/metrics" {
		return false
	}
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

func isSyscallPkg(pkg string) bool {
	return pkg == "syscall" || pkg == "internal/runtime/syscall" || pkg == "internal/poll"
}

// allocOrGC reports whether a runtime function is allocator or collector
// work, which stays in the runtime layer whoever triggered it.
func allocOrGC(fn string) bool {
	for _, p := range []string{
		"runtime.mallocgc", "runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.markroot", "runtime.scanobject", "runtime.greyobject", "runtime.sweepone",
		"runtime.wbBuf", "runtime.(*gcWork)", "runtime.(*mheap)", "runtime.(*mcentral)",
		"runtime.(*mcache)",
	} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// stackLayer charges a stack (leaf first) to a layer. A leaf in a module
// package or the event heap is that layer. A runtime leaf is "runtime" when
// the stack is allocating or collecting; otherwise, like any other
// standard-library or utility leaf, it is charged to the nearest caller in
// a layer, since a map lookup or a memmove is the caller's work, or to
// "other" when the benchmark's own code (its sink and load generator)
// comes first. Stacks with neither are "runtime" (scheduler, GC workers)
// or "other".
func stackLayer(frames []string) string {
	if len(frames) == 0 {
		return "other"
	}
	leaf := pkgOf(frames[0])
	if l := directLayer(leaf); l != "" {
		return l
	}
	runtimeLeaf := isRuntimePkg(leaf)
	for _, fn := range frames {
		if runtimeLeaf && allocOrGC(fn) {
			return "runtime"
		}
		pkg := pkgOf(fn)
		if l := directLayer(pkg); l != "" {
			return l
		}
		if pkg == benchPackage {
			return "other"
		}
	}
	if runtimeLeaf {
		return "runtime"
	}
	return "other"
}

// allocLayer charges an allocation site (leaf first) to the nearest module
// frame: the runtime frames at the leaf are the allocator itself.
func allocLayer(frames []string) string {
	for _, fn := range frames {
		if l := directLayer(pkgOf(fn)); l != "" {
			return l
		}
	}
	return "other"
}

// layerProfile is the profiled phase's attribution.
type layerProfile struct {
	self         map[string]float64 // layer -> share of CPU samples
	syscallShare float64            // share of CPU samples in a relay syscall
	allocShare   map[string]float64 // layer -> share of allocated objects
}

// profiler wraps the CPU and allocation profiles of one profiled phase.
type profiler struct {
	cpu      bytes.Buffer
	allocs0  map[[32]uintptr]allocCount
	prevRate int
}

// memProfileRate samples one allocation per this many bytes during the
// profiled phase (the runtime default, 512 KiB, gives too few samples for
// per-layer shares of a short phase).
const memProfileRate = 16 << 10

func startProfiler() (*profiler, error) {
	p := &profiler{prevRate: runtime.MemProfileRate}
	runtime.MemProfileRate = memProfileRate
	p.allocs0 = allocSnapshot()
	if err := pprof.StartCPUProfile(&p.cpu); err != nil {
		runtime.MemProfileRate = p.prevRate
		return nil, err
	}
	return p, nil
}

func (p *profiler) stop() (*layerProfile, error) {
	pprof.StopCPUProfile()
	allocs1 := allocSnapshot()
	runtime.MemProfileRate = p.prevRate

	lp := &layerProfile{self: map[string]float64{}, allocShare: map[string]float64{}}
	prof, err := parseCPUProfile(&p.cpu)
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	var samples, sys int64
	for _, s := range prof.samples {
		frames := prof.frames(s.locs)
		l := stackLayer(frames)
		samples += s.count
		lp.self[l] += float64(s.count)
		if l == "relay" && isSyscallPkg(pkgOf(frames[0])) {
			sys += s.count
		}
	}
	for l := range lp.self {
		lp.self[l] = ratio(lp.self[l], float64(samples))
	}
	lp.syscallShare = ratio(float64(sys), float64(samples))

	var total float64
	for stk, c1 := range allocs1 {
		c0 := p.allocs0[stk]
		objs := scaleAllocs(c1.objects-c0.objects, c1.bytes-c0.bytes)
		if objs <= 0 {
			continue
		}
		lp.allocShare[allocLayer(symbolize(stk))] += objs
		total += objs
	}
	for l := range lp.allocShare {
		lp.allocShare[l] = ratio(lp.allocShare[l], total)
	}
	return lp, nil
}

// put writes the shares into a per-layer metrics map.
func (lp *layerProfile) put(m map[string]float64) {
	for _, l := range layers {
		if l == "other" {
			continue
		}
		m[l+".self_share"] = lp.self[l]
	}
	m["netsim.alloc_share"] = lp.allocShare["netsim"]
	m["transport.alloc_share"] = lp.allocShare["transport"]
	m["relay.syscall_share"] = lp.syscallShare
}

type allocCount struct{ objects, bytes int64 }

// allocSnapshot reads the cumulative allocation profile, keyed by stack.
// The profile is published at the end of a GC cycle, so it forces one.
func allocSnapshot() map[[32]uintptr]allocCount {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	out := make(map[[32]uintptr]allocCount, n)
	for _, r := range recs[:n] {
		c := out[r.Stack0]
		c.objects += r.AllocObjects
		c.bytes += r.AllocBytes
		out[r.Stack0] = c
	}
	return out
}

// scaleAllocs undoes the allocation profile's size-biased sampling the way
// pprof does: a site's sampled object count is scaled by the probability
// that an object of its average size was sampled at all.
func scaleAllocs(objects, bytes int64) float64 {
	if objects <= 0 || bytes <= 0 {
		return 0
	}
	avg := float64(bytes) / float64(objects)
	return float64(objects) / (1 - math.Exp(-avg/memProfileRate))
}

func symbolize(stk [32]uintptr) []string {
	n := 0
	for n < len(stk) && stk[n] != 0 {
		n++
	}
	var out []string
	frames := runtime.CallersFrames(stk[:n])
	for {
		f, more := frames.Next()
		out = append(out, f.Function)
		if !more {
			break
		}
	}
	return out
}

// cpuProfile is the part of a pprof CPU profile the attribution needs.
type cpuProfile struct {
	samples []cpuSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name index in strs
	strs    []string
}

type cpuSample struct {
	locs  []uint64 // leaf first
	count int64
}

// frames expands a sample's locations, inlined functions included, into
// function names, leaf first.
func (p *cpuProfile) frames(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, f := range p.locs[l] {
			if i := p.funcs[f]; i >= 0 && int(i) < len(p.strs) {
				out = append(out, p.strs[i])
			}
		}
	}
	return out
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes. Only the fields the attribution reads are decoded: samples
// (field 2), locations (4), functions (5) and the string table (6).
func parseCPUProfile(r io.Reader) (*cpuProfile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s cpuSample
			var vals []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locs[id] = fns
		case 5:
			var id uint64
			name := int64(-1)
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcs[id] = name
		case 6:
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendPacked appends a repeated varint field that arrived either as one
// varint (v) or packed into a length-delimited run (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("malformed protobuf")

// eachField walks a protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes (nil for
// varints). Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}
