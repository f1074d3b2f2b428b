package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/portfolio"
	"repro/internal/pwg"
	"repro/internal/rng"
	"repro/internal/sched"
)

// families is the rotation every workload draws its workflows from.
var families = []pwg.Workflow{pwg.Montage, pwg.CyberShake, pwg.Ligo, pwg.Genome}

// Instance is one generated scheduling problem.
type Instance struct {
	Family pwg.Workflow
	Seed   uint64
	G      *dag.Graph
	Plat   failure.Platform
}

// NewInstance generates an n-task workflow of the family with the
// paper's proportional costs c = r = 0.1·w and the family's λ.
func NewInstance(fam pwg.Workflow, n int, seed uint64, downtime float64) (Instance, error) {
	g, err := pwg.Generate(fam, n, seed)
	if err != nil {
		return Instance{}, err
	}
	g.ScaleCkptCosts(func(t dag.Task) (float64, float64) { return 0.1 * t.Weight, 0.1 * t.Weight })
	return Instance{Family: fam, Seed: seed, G: g, Plat: failure.Platform{Lambda: fam.DefaultLambda(), Downtime: downtime}}, nil
}

// largeInstance is search i of portfolio-large: a distinct instance
// per index, rotating the four families.
func largeInstance(cfg Config, i int) (Instance, error) {
	return NewInstance(families[i%len(families)], cfg.LargeN, rng.StreamSeed(cfg.Seed, uint64(i)), 0)
}

// CheckResults verifies a portfolio run: every heuristic's schedule is
// valid, a fresh cold evaluator reproduces its Expected bit for bit,
// and no expectation falls below core.LowerBound.
func CheckResults(inst Instance, res []sched.Result) error {
	if len(res) == 0 {
		return errors.New("no results")
	}
	lb := core.LowerBound(inst.G, inst.Plat)
	var errs []error
	for _, r := range res {
		if err := r.Schedule.Validate(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", r.Name, err))
			continue
		}
		v := core.NewEvaluator().Eval(r.Schedule, inst.Plat)
		if math.Float64bits(v) != math.Float64bits(r.Expected) {
			errs = append(errs, fmt.Errorf("%s: cold re-evaluation %v != reported %v", r.Name, v, r.Expected))
		}
		if !(lb <= r.Expected) || math.IsInf(r.Expected, 0) {
			errs = append(errs, fmt.Errorf("%s: expected %v below lower bound %v or not finite", r.Name, r.Expected, lb))
		}
	}
	return errors.Join(errs...)
}

// runPortfolioLarge measures back-to-back portfolio.Run searches at
// n = LargeN, in rounds of one instance per family, until the run's
// time is spent (at least one full round).
func runPortfolioLarge(cfg Config, chk *Checker, tr *Tracer) (map[string]float64, error) {
	hs := sched.Paper14(sched.Options{Grid: cfg.LargeGrid})
	if tr != nil {
		return tracePortfolioLarge(cfg, chk, tr, hs)
	}
	// Set-up: generate the first round's inputs, several times.
	var setups []float64
	for rep := 0; rep < cfg.SetupReps; rep++ {
		start := time.Now()
		for f := range families {
			if _, err := largeInstance(cfg, f); err != nil {
				return nil, err
			}
		}
		setups = append(setups, sec(time.Since(start)))
	}

	// Each result is checked as soon as its search ends, outside the
	// timed call, and then dropped, so peak RSS does not grow with the
	// number of searches a run completes. A collection between search
	// and check lowers the heap goal, so the check's own evaluators
	// stay inside the pages the search already touched.
	var times, ratios []float64
	var busy time.Duration
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < cfg.Duration; round++ {
		for f := range families {
			inst, err := largeInstance(cfg, round*len(families)+f)
			if err != nil {
				return nil, err
			}
			runtime.GC()
			t0 := time.Now()
			res := portfolio.Run(hs, inst.G, inst.Plat, portfolio.Options{Workers: cfg.Workers})
			d := time.Since(t0)
			busy += d
			times = append(times, ms(d))
			runtime.GC()
			chk.Op(fmt.Sprintf("search %d (%v)", len(times)-1, inst.Family), CheckResults(inst, res))
			if round == 0 {
				ratios = append(ratios, portfolio.Best(res).Expected/inst.G.TotalWeight())
			}
		}
	}
	return map[string]float64{
		"setup_s":        median(setups),
		"op_p50_ms":      median(times),
		"op_p90_ms":      quantile(times, 0.9),
		"ops_per_s":      float64(len(times)) / busy.Seconds(),
		"makespan_ratio": geomean(ratios),
	}, nil
}

// tracePortfolioLarge is the traced run of portfolio-large: the search
// layers on the first instance, and the remaining layers on probes
// derived from the same seed.
func tracePortfolioLarge(cfg Config, chk *Checker, tr *Tracer, hs []sched.Heuristic) (map[string]float64, error) {
	inst, err := largeInstance(cfg, 0)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	best := probeSearch(cfg, chk, tr, hs, inst, m)
	probeMC(cfg, chk, tr, best.Schedule, inst.Plat, m)
	var bodies []Instance
	for f := range families {
		in, err := largeInstance(cfg, f)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, in)
	}
	probeWfio(tr, bodies, m)
	return m, probeSmall(cfg, chk, tr, m)
}

// probeSearch measures the search layers on one instance: portfolio.Run
// at every worker count 1..Workers, then a serial replay of the same
// search through the strategy primitives, spanned call by call. The
// replay must reproduce portfolio.Run's per-heuristic winners bit for
// bit. It returns the portfolio winner.
func probeSearch(cfg Config, chk *Checker, tr *Tracer, hs []sched.Heuristic, inst Instance, m map[string]float64) sched.Result {
	var ref []sched.Result
	runS := make([]float64, cfg.Workers+1) // by worker count
	for w := 1; w <= cfg.Workers; w++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		var res []sched.Result
		d := tr.Do(fmt.Sprintf("portfolio.run.w%d", w), tr.NewOp(), -1, func() {
			res = portfolio.Run(hs, inst.G, inst.Plat, portfolio.Options{Workers: w})
		})
		runtime.ReadMemStats(&after)
		runS[w] = sec(d)
		if w == 1 {
			ref = res
			chk.Op("portfolio.Run w1", CheckResults(inst, res))
		} else {
			chk.Op(fmt.Sprintf("portfolio.Run w%d == w1", w), sameWinners(ref, res))
		}
		if w == cfg.Workers {
			m["portfolio.alloc_mb_per_worker"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(w) / (1 << 20)
		}
	}
	m["portfolio.run_s.w1"] = runS[1]
	m["portfolio.run_s.wmax"] = runS[cfg.Workers]
	m["portfolio.scaling_eff"] = runS[1] / (float64(cfg.Workers) * runS[cfg.Workers])

	// Untraced replay first (it also warms the code paths), then the
	// traced one; their ratio is the tracing overhead.
	runtime.GC()
	t0 := time.Now()
	replay(nil, -1, hs, inst)
	plain := time.Since(t0)
	runtime.GC()
	op := tr.NewOp()
	t1 := time.Now()
	rep, st := replay(tr, op, hs, inst)
	traced := time.Since(t1)
	spans := tr.Spans()
	chk.Op("replay == portfolio.Run", sameWinners(ref, rep))

	var coreSched time.Duration
	self := SelfTimes(spans)
	for i, s := range spans {
		if s.Op == op && (s.Layer() == "core" || s.Layer() == "sched") {
			coreSched += self[i]
		}
	}
	w1 := runS[1]
	m["portfolio.unattributed_ratio"] = (w1 - coreSched.Seconds()) / w1
	m["trace.overhead_ratio"] = traced.Seconds() / plain.Seconds()
	m["core.factor_table_ms"] = median(opDurations(spans, op, "core.factor_table")) / 1e6
	m["core.eval_point_us"] = median(opDurations(spans, op, "core.eval_point")) / 1e3
	m["core.evals"] = float64(st.evals)
	m["sched.linearize_ms"] = sumF(opDurations(spans, op, "sched.linearize")) / 1e6
	m["sched.masker_us"] = median(opDurations(spans, op, "sched.new_masker")) / 1e3
	m["sched.candidates"] = float64(st.candidates)
	m["sched.stage2_evals"] = float64(st.stage2Evals)
	m["sched.pruned_ratio"] = float64(st.pruned) / float64(st.candidates)

	// Cold evaluation of every heuristic's winner on a warm evaluator.
	ev := core.NewEvaluator()
	cop := tr.NewOp()
	var cold []float64
	for rep := 0; rep < 3; rep++ {
		for _, r := range ref {
			s := r.Schedule
			d := tr.Do("core.eval_cold", cop, -1, func() { ev.Eval(s, inst.Plat) })
			if rep > 0 {
				cold = append(cold, float64(d))
			}
		}
	}
	m["core.eval_cold_us"] = median(cold) / 1e3
	m["core.evaluator_mb"] = evaluatorMB(portfolio.Best(ref).Schedule, inst.Plat)
	return portfolio.Best(ref)
}

// evaluatorMB is the live heap of one warm evaluator with its delta
// companion loaded on s.
func evaluatorMB(s *core.Schedule, plat failure.Platform) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ev := core.NewEvaluator()
	ev.Eval(s, plat)
	ev.EvalPoint()(s, plat)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ev)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
}

// replayStats counts the replay's search work.
type replayStats struct {
	candidates, pruned, evals, stage2Evals int
}

// replay runs the portfolio's search serially through the strategy
// primitives — Linearize, NewFactorTable, Sweep / NewMasker /
// SecondStage, NewBounder, Eval / EvalPoint — spanning each call. It
// applies the same canonical tie-break and bound pruning as
// portfolio.Run, so it returns the same per-heuristic winners.
func replay(tr *Tracer, op int, hs []sched.Heuristic, inst Instance) ([]sched.Result, replayStats) {
	g, plat := inst.G, inst.Plat
	n := g.N()
	var st replayStats
	root := tr.Begin("replay.portfolio", op, -1)
	defer tr.End(root)
	var table *core.FactorTable
	tr.Do("core.factor_table", op, root, func() { table = core.NewFactorTable(g, plat) })
	ev := core.NewEvaluator()
	ev.SetFactorTable(table)
	out := make([]sched.Result, len(hs))
	for i, h := range hs {
		hid := tr.Begin("replay.heuristic", op, root)
		var order []int
		tr.Do("sched.linearize", op, hid, func() { order = h.Lin.Linearize(g) })
		sw, ok := h.Strat.(sched.NSweeper)
		var ns []int
		if ok {
			ns = sw.Sweep(n)
		}
		if len(ns) == 0 {
			var s *core.Schedule
			var v float64
			tr.Do("sched.apply", op, hid, func() { s, v = h.Strat.Apply(g, plat, order, ev) })
			st.evals++
			out[i] = sched.Result{Name: h.Name(), Schedule: s, Expected: v, Ratio: v / g.TotalWeight()}
			tr.End(hid)
			continue
		}
		var bound func(int) float64
		if bs, ok := sw.(sched.BoundedSweeper); ok {
			tr.Do("sched.bounder", op, hid, func() { bound, _ = bs.NewBounder(g, plat, order) })
		}
		var masker func(int, []bool)
		tr.Do("sched.new_masker", op, hid, func() { masker = sw.NewMasker(g, order) })
		evalPoint := func(s *core.Schedule, p failure.Platform) float64 { return ev.Eval(s, p) }
		name := "core.eval"
		if ds, ok := sw.(sched.DeltaSweepable); ok && ds.DeltaSweep() {
			evalPoint = ev.EvalPoint()
			name = "core.eval_point"
		}
		mask := make([]bool, n)
		s := &core.Schedule{Graph: g, Order: order, Ckpt: mask}
		bestVal, bestN, bestK := math.Inf(1), -1, 0
		var bestMask []bool
		try := func(N int) bool {
			st.candidates++
			if bound != nil && sched.Prunable(bound(N), bestVal) {
				st.pruned++
				return false
			}
			tr.Do("sched.mask", op, hid, func() { masker(N, mask) })
			var v float64
			tr.Do(name, op, hid, func() { v = evalPoint(s, plat) })
			st.evals++
			if k := s.NumCheckpointed(); sched.CanonicalBetter(v, k, N, bestVal, bestK, bestN) {
				bestVal, bestK, bestN = v, k, N
				bestMask = append(bestMask[:0], mask...)
			}
			return true
		}
		for _, N := range ns {
			try(N)
		}
		first := bestN
		lo, hi := sw.SecondStage(n, first, ns)
		for N := hi; N >= lo; N-- {
			if N != first && try(N) {
				st.stage2Evals++
			}
		}
		out[i] = sched.Result{Name: h.Name(), Schedule: &core.Schedule{Graph: g, Order: order, Ckpt: bestMask},
			Expected: bestVal, Ratio: bestVal / g.TotalWeight()}
		tr.End(hid)
	}
	return out, st
}

// sameWinners requires two per-heuristic result lists to agree bit for
// bit: names, expected makespans, orders and checkpoint masks.
func sameWinners(want, got []sched.Result) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	var errs []error
	for i := range want {
		a, b := want[i], got[i]
		switch {
		case a.Name != b.Name:
			errs = append(errs, fmt.Errorf("heuristic %d: %s != %s", i, b.Name, a.Name))
		case math.Float64bits(a.Expected) != math.Float64bits(b.Expected):
			errs = append(errs, fmt.Errorf("%s: expected %v != %v", a.Name, b.Expected, a.Expected))
		case !slices.Equal(a.Schedule.Order, b.Schedule.Order):
			errs = append(errs, fmt.Errorf("%s: orders differ", a.Name))
		case !slices.Equal(a.Schedule.Ckpt, b.Schedule.Ckpt):
			errs = append(errs, fmt.Errorf("%s: checkpoint masks differ", a.Name))
		}
	}
	return errors.Join(errs...)
}

// opDurations returns the durations (ns) of op's spans with the name.
func opDurations(spans []Span, op int, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Op == op && s.Name == name {
			out = append(out, float64(s.Dur()))
		}
	}
	return out
}

func sumF(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
