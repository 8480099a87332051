package main

import (
	"fmt"
	"io"
)

// digest fingerprints an outcome: 64-bit FNV-1a over the little-endian
// encoding of its fields, in a fixed order. It hashes in place, so checking
// an operation's output allocates nothing beside the program's own work.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: 14695981039346656037} }

func (d *digest) byte(b byte) { d.h = (d.h ^ uint64(b)) * 1099511628211 }

func (d *digest) add(vs ...uint64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			d.byte(byte(v >> (8 * i)))
		}
	}
}

func (d *digest) str(s string) {
	d.add(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		d.byte(s[i])
	}
}

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h) }

// outcomeCheck holds the digest every operation of a run must reproduce:
// the one recorded in recordedDigests for this workload and seed, or, for
// a seed with no record, the run's own first outcome, so repeats are still
// checked for determinism.
type outcomeCheck struct {
	workload string
	seed     int64
	want     string
	log      io.Writer
}

func newOutcomeCheck(workload string, seed int64, log io.Writer) *outcomeCheck {
	return &outcomeCheck{workload: workload, seed: seed, want: recordedDigests[workload][seed], log: log}
}

// ok reports whether got is the expected outcome digest.
func (c *outcomeCheck) ok(got string) bool {
	if c.want == "" {
		c.want = got
		fmt.Fprintf(c.log, "perfbench: %s seed %d: no recorded digest; this run's outcome is %s\n", c.workload, c.seed, got)
		return true
	}
	if got != c.want {
		fmt.Fprintf(c.log, "perfbench: %s seed %d: outcome digest %s, want %s\n", c.workload, c.seed, got, c.want)
		return false
	}
	return true
}
