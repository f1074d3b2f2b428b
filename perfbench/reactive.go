package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/mc"
	"repro/internal/pwg"
	"repro/internal/rerun"
	"repro/internal/rng"
	"repro/internal/sched"
)

// reactiveInstance is reactive-mc's workflow k: CyberShake with
// λ = 1e-3 and downtime D = 10.
func reactiveInstance(cfg Config, k int) (Instance, error) {
	return NewInstance(pwg.CyberShake, cfg.ReactiveN, rng.StreamSeed(cfg.Seed, 1<<34+uint64(k)), 10)
}

func reactiveOptions(cfg Config) rerun.Options {
	return rerun.Options{Grid: cfg.ReactiveGrid, Workers: cfg.Workers}
}

// passSeed is the Monte-Carlo seed of CompareMC pass i.
func passSeed(cfg Config, i int) uint64 { return rng.StreamSeed(cfg.Seed, 1<<35+uint64(i)) }

// checkComparison verifies one CompareMC pass: finite means, and the
// static plan's Monte-Carlo mean within mcSigmas standard errors of
// its analytic expectation.
func checkComparison(c rerun.Comparison) error {
	var errs []error
	for _, r := range []mc.Result{c.StaticMC, c.ReactiveMC} {
		if m := r.Makespan.Mean(); math.IsNaN(m) || math.IsInf(m, 0) || m <= 0 || r.Makespan.N() != c.Trials {
			errs = append(errs, fmt.Errorf("bad Monte-Carlo result: mean %v over %d trials", m, r.Makespan.N()))
		}
	}
	se := c.StaticMC.Makespan.StdErr()
	if d := math.Abs(c.StaticMC.Makespan.Mean() - c.Static.Expected); !(d <= mcSigmas*se) {
		errs = append(errs, fmt.Errorf("static mc mean %v is %.1f standard errors from expected %v",
			c.StaticMC.Makespan.Mean(), d/se, c.Static.Expected))
	}
	return errors.Join(errs...)
}

// runReactiveMC measures back-to-back reactive experiments: each
// builds a fresh engine on one of ReactiveInstances workflows (in
// rotation) and runs one CompareMC pass, so its residual searches all
// go through a plan cache that starts empty. A fresh engine per pass
// keeps the work per pass independent of how many passes ran before,
// so a faster machine does not also get a warmer cache.
func runReactiveMC(cfg Config, chk *Checker, tr *Tracer) (map[string]float64, error) {
	if tr != nil {
		return traceReactiveMC(cfg, chk, tr)
	}
	var (
		insts  []Instance
		setups []float64
	)
	for rep := 0; rep < max(1, cfg.SetupReps); rep++ {
		start := time.Now()
		insts = insts[:0]
		for k := 0; k < cfg.ReactiveInstances; k++ {
			inst, err := reactiveInstance(cfg, k)
			if err != nil {
				return nil, err
			}
			rerun.New(inst.G, inst.Plat, reactiveOptions(cfg)).Static()
			insts = append(insts, inst)
		}
		setups = append(setups, sec(time.Since(start)))
	}

	var times []float64
	var busy time.Duration
	var staticSum, reactiveSum float64
	trials := 0
	// The first pass on each workflow always runs; makespan_ratio is
	// taken over those passes alone, so it depends on the seed only.
	fixed := len(insts)
	start := time.Now()
	for i := 0; i < fixed || time.Since(start) < cfg.Duration; i++ {
		inst := insts[i%len(insts)]
		t0 := time.Now()
		eng := rerun.New(inst.G, inst.Plat, reactiveOptions(cfg))
		c, err := eng.CompareMC(cfg.ReactiveTrials, passSeed(cfg, i), cfg.Workers)
		d := time.Since(t0)
		busy += d
		times = append(times, ms(d))
		if err == nil {
			err = checkComparison(c)
		}
		if err == nil {
			err = CheckResults(inst, []sched.Result{c.Static})
		}
		chk.Op(fmt.Sprintf("CompareMC pass %d", i), err)
		trials += cfg.ReactiveTrials
		if i < fixed {
			staticSum += c.StaticMC.Makespan.Mean()
			reactiveSum += c.ReactiveMC.Makespan.Mean()
		}
	}
	return map[string]float64{
		"setup_s":        median(setups),
		"op_p50_ms":      median(times),
		"op_p90_ms":      quantile(times, 0.9),
		"ops_per_s":      float64(trials) / busy.Seconds(),
		"makespan_ratio": reactiveSum / staticSum,
	}, nil
}
