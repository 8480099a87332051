package main

import (
	"fmt"
	"time"

	ip "incastproxy"
)

// modelSweepSizes is the number of sizes on the fast sweep's axis; with
// three schemes it makes the 1002-cell Figure 2 (Right) grid.
const modelSweepSizes = 334

// modelSweepInputs is the `figures -fast` Figure 2 (Right) grid at degree
// 8: size i is i MB plus a seeded offset below 1 MB.
func modelSweepInputs(seed int64) ip.SweepConfig {
	sizes := make([]ip.ByteSize, modelSweepSizes)
	for i := range sizes {
		sizes[i] = ip.ByteSize(i+1)*ip.MB + ip.ByteSize(splitmix(seed, uint64(100+i))%int64(ip.MB))
	}
	return ip.SweepConfig{
		Sizes:           sizes,
		Fig2RightDegree: 8,
		Runs:            1,
		Seed:            splitmix(seed, 5),
		Parallel:        1,
		Fast:            true,
	}
}

func checkModelSweep(cfg ip.SweepConfig, pts []ip.FigurePoint) error {
	if n := len(cfg.Sizes) * len(ip.Schemes()); len(pts) != n {
		return fmt.Errorf("%d predictions, want %d", len(pts), n)
	}
	for _, pt := range pts {
		if pt.Avg <= 0 || pt.Min != pt.Avg || pt.Max != pt.Avg {
			return fmt.Errorf("%s %v: predicted ICT avg %v min %v max %v", pt.Label, pt.Scheme, pt.Avg, pt.Min, pt.Max)
		}
	}
	return nil
}

func modelDigest(pts []ip.FigurePoint) string {
	d := newDigest()
	for _, pt := range pts {
		d.str(pt.Label)
		d.add(uint64(pt.Scheme), uint64(pt.Avg), uint64(pt.BaselineAvg))
	}
	return d.String()
}

func runModelSweep(p params) (*report, error) {
	var cfg ip.SweepConfig
	// Set-up is generating the grid plus one cold sweep: the model has no
	// fabric to build, and the first sweep pays its lazy start-up.
	setup, err := medianSetup(cpuTime, nil, func() error {
		cfg = modelSweepInputs(p.seed)
		_, err := ip.Figure2Right(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	check := newOutcomeCheck("model-sweep", p.seed, p.log)
	op := func() (time.Duration, bool) {
		var pts []ip.FigurePoint
		var err error
		dt := timed(cpuTime, func() { pts, err = ip.Figure2Right(cfg) })
		if err == nil {
			err = checkModelSweep(cfg, pts)
		}
		if err != nil {
			fmt.Fprintf(p.log, "perfbench: model-sweep: %v\n", err)
			return dt, false
		}
		return dt, check.ok(modelDigest(pts))
	}
	var payload ip.ByteSize
	for _, s := range cfg.Sizes {
		payload += s * ip.ByteSize(len(ip.Schemes()))
	}
	if !p.trace {
		st := loop(p.budget, 0, op)
		return endToEndReport(st, setup, float64(payload)/1e6), nil
	}
	m := map[string]float64{}
	st, err := profiledPhases(p, op, m)
	if err != nil {
		return nil, err
	}
	cells := float64(len(cfg.Sizes) * len(ip.Schemes()))
	m["model.ns_per_cell"] = ratio(float64(quantile(st.a.times, 0.5)), cells)
	m["model.allocs_per_cell"] = ratio(st.rt.allocObjects, cells*float64(st.a.attempted))
	return &report{attempted: st.attempted, failed: st.failed, metrics: m}, nil
}
