package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/mc"
	"repro/internal/portfolio"
	"repro/internal/pwg"
	"repro/internal/refine"
	"repro/internal/rerun"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/simulator"
	"repro/internal/wfio"
)

// The traced run of every workload reports every per-layer metric.
// Layers the workload exercises are measured on its own inputs; the
// others on small probes generated from the same seed (probeSmall).

// probeCfg shrinks cfg for the small probes.
func probeCfg(cfg Config) Config {
	p := cfg
	p.ServeMinN, p.ServeMaxN, p.ServeCollapseN = cfg.ProbeN, 3*cfg.ProbeN, 2*cfg.ProbeN
	p.ServeRefineN = cfg.ProbeN
	p.ServeTraceItems = min(cfg.ServeTraceItems, 26)
	return p
}

// probeSmall measures refine, rerun and serve on small probes.
func probeSmall(cfg Config, chk *Checker, tr *Tracer, m map[string]float64) error {
	inst, err := NewInstance(pwg.Montage, cfg.ProbeN, rng.StreamSeed(cfg.Seed, 1<<36), 0)
	if err != nil {
		return err
	}
	probeRefine(cfg, chk, tr, inst, m)
	rin, err := NewInstance(pwg.CyberShake, cfg.ProbeN, rng.StreamSeed(cfg.Seed, 1<<37), 10)
	if err != nil {
		return err
	}
	probeRerun(cfg, chk, tr, rin, 16, cfg.ProbeTrials/4, m)
	_, err = probeServe(probeCfg(cfg), chk, tr, m)
	return err
}

// probeRefine hill-climbs the portfolio winner of inst.
func probeRefine(cfg Config, chk *Checker, tr *Tracer, inst Instance, m map[string]float64) {
	hs := sched.Paper14(sched.Options{})
	best := portfolio.Best(portfolio.Run(hs, inst.G, inst.Plat, portfolio.Options{Workers: cfg.Workers}))
	ev := core.NewEvaluator()
	var res refine.Result
	d := tr.Do("refine.improve", tr.NewOp(), -1, func() {
		res = refine.ImproveWith(best.Schedule, inst.Plat, refine.Options{}, ev)
	})
	var err error
	if v := core.NewEvaluator().Eval(res.Schedule, inst.Plat); math.Float64bits(v) != math.Float64bits(res.Expected) || res.Expected > res.Start {
		err = fmt.Errorf("refine: reported %v, cold %v, start %v", res.Expected, v, res.Start)
	}
	chk.Op("refine", err)
	m["refine.evals"] = float64(res.Evals)
	m["refine.eval_us"] = us(d) / float64(max(1, res.Evals))
}

// timedRunner times each trial of the wrapped runner.
type timedRunner struct {
	inner mc.Runner
	mu    *sync.Mutex
	out   *[]float64
}

func (r timedRunner) Trial(s *core.Schedule) mc.Sample {
	t0 := time.Now()
	smp := r.inner.Trial(s)
	d := time.Since(t0)
	r.mu.Lock()
	*r.out = append(*r.out, float64(d))
	r.mu.Unlock()
	return smp
}

// probeMC times single simulator trials (one worker) and the sharded
// engine's throughput (all workers) on schedule s; both runs must
// agree, and agree with the analytic expectation.
func probeMC(cfg Config, chk *Checker, tr *Tracer, s *core.Schedule, plat failure.Platform, m map[string]float64) {
	var mu sync.Mutex
	var trial []float64
	inner := simulator.Factory()
	timed := func(p failure.Platform, src *rng.Source) mc.Runner {
		return timedRunner{inner: inner(p, src), mu: &mu, out: &trial}
	}
	op := tr.NewOp()
	var one, all mc.Result
	var err1, err2 error
	tr.Do("mc.run.w1", op, -1, func() {
		one, err1 = mc.Run(s, plat, mc.Config{Trials: cfg.ProbeTrials, Seed: cfg.Seed, Workers: 1, Factory: timed})
	})
	d := tr.Do("mc.run.wmax", op, -1, func() {
		all, err2 = mc.Run(s, plat, mc.Config{Trials: cfg.ProbeTrials, Seed: cfg.Seed, Workers: cfg.Workers, Factory: simulator.Factory()})
	})
	err := errors.Join(err1, err2)
	if err == nil && math.Float64bits(one.Makespan.Mean()) != math.Float64bits(all.Makespan.Mean()) {
		err = fmt.Errorf("mc mean %v at 1 worker != %v at %d", one.Makespan.Mean(), all.Makespan.Mean(), cfg.Workers)
	}
	if err == nil {
		exp := core.NewEvaluator().Eval(s, plat)
		if dev := math.Abs(all.Makespan.Mean() - exp); !(dev <= mcSigmas*all.Makespan.StdErr()) {
			err = fmt.Errorf("mc mean %v is %.1f standard errors from expected %v", all.Makespan.Mean(), dev/all.Makespan.StdErr(), exp)
		}
	}
	chk.Op("mc", err)
	m["simulator.trial_us"] = median(trial) / 1e3
	m["mc.trials_per_s"] = float64(cfg.ProbeTrials) / d.Seconds()
}

// probeRerun times a fresh engine's static search, one cold-cache
// CompareMC pass and the same pass again on the warm cache.
func probeRerun(cfg Config, chk *Checker, tr *Tracer, inst Instance, grid, trials int, m map[string]float64) {
	op := tr.NewOp()
	eng := rerun.New(inst.G, inst.Plat, rerun.Options{Grid: grid, Workers: cfg.Workers})
	ds := tr.Do("rerun.static", op, -1, func() { eng.Static() })
	var cold, warm rerun.Comparison
	var err1, err2 error
	dc := tr.Do("rerun.compare_cold", op, -1, func() { cold, err1 = eng.CompareMC(trials, passSeed(cfg, 0), cfg.Workers) })
	hits, misses := eng.CacheStats()
	dw := tr.Do("rerun.compare_warm", op, -1, func() { warm, err2 = eng.CompareMC(trials, passSeed(cfg, 0), cfg.Workers) })
	err := errors.Join(err1, err2)
	if err == nil {
		err = checkComparison(cold)
	}
	if err == nil && math.Float64bits(cold.ReactiveMC.Makespan.Mean()) != math.Float64bits(warm.ReactiveMC.Makespan.Mean()) {
		err = fmt.Errorf("reactive mean differs between cold and warm plan cache: %v vs %v",
			cold.ReactiveMC.Makespan.Mean(), warm.ReactiveMC.Makespan.Mean())
	}
	chk.Op("rerun", err)
	m["rerun.static_s"] = ds.Seconds()
	m["rerun.plan_misses"] = float64(misses)
	m["rerun.plan_hit_ratio"] = float64(hits) / float64(max(1, hits+misses))
	m["rerun.residual_search_ms"] = ms(dc-dw) / float64(max(1, misses))
}

// probeWfio times the wfio parsers and the canonical hash on the
// instances' workflows.
func probeWfio(tr *Tracer, insts []Instance, m map[string]float64) {
	op := tr.NewOp()
	var pj, pt, hh []float64
	for _, in := range insts {
		jb, _ := json.Marshal(wfio.ToJSON(in.G, nil, nil))
		var tb bytes.Buffer
		wfio.Write(&tb, in.G, nil, nil)
		for rep := 0; rep < 5; rep++ {
			pj = append(pj, float64(tr.Do("wfio.parse_json", op, -1, func() { wfio.ParseJSON(bytes.NewReader(jb)) })))
			pt = append(pt, float64(tr.Do("wfio.parse_text", op, -1, func() { wfio.Parse(bytes.NewReader(tb.Bytes())) })))
			hh = append(hh, float64(tr.Do("wfio.hash", op, -1, func() { wfio.CanonicalHash(in.G, "v=perfbench") })))
		}
	}
	m["wfio.parse_json_us"] = median(pj) / 1e3
	m["wfio.parse_text_us"] = median(pt) / 1e3
	m["wfio.hash_us"] = median(hh) / 1e3
}

// probeServe measures the service on the first ServeTraceItems items
// of a script: the traced closed loop (hit and collapsed latencies,
// /stats ratios), the loopback floor (/healthz), the response store on
// the loop's answers, and the per-request overhead — each distinct
// request replayed serially over HTTP on a fresh server and in process
// through the same public calls. It returns the script.
func probeServe(cfg Config, chk *Checker, tr *Tracer, m map[string]float64) (*Script, error) {
	sc := NewScript(cfg, true)
	n := cfg.ServeTraceItems
	if err := sc.Prefix(n); err != nil {
		return nil, err
	}
	svc, err := StartService(cfg.Workers)
	if err != nil {
		return nil, err
	}
	outs := Drive(svc, sc, n, cfg.Workers, time.Now().Add(time.Hour), tr, chk)
	st := checkStats(svc, sc, chk)
	var hit, coll []float64
	for _, o := range outs {
		switch o.Item.Class {
		case ClassHit:
			hit = append(hit, ms(o.Latency))
		case ClassCollapsed:
			coll = append(coll, ms(o.Latency))
		}
	}
	m["serve.hit_p50_ms"] = median(hit)
	m["serve.hit_p90_ms"] = quantile(hit, 0.9)
	m["serve.collapsed_p50_ms"] = 0 // a single client cannot collapse requests
	if len(coll) > 0 {
		m["serve.collapsed_p50_ms"] = median(coll)
	}
	m["serve.hit_ratio"] = float64(st.CacheHits) / float64(max(1, st.Served))
	m["serve.collapsed_ratio"] = float64(st.Collapsed) / float64(max(1, st.Served))
	m["serve.searches"] = float64(st.Searches)

	op := tr.NewOp()
	var hz []float64
	for i := 0; i < 200; i++ {
		var err error
		d := tr.Do("serve.healthz", op, -1, func() {
			var resp *http.Response
			if resp, err = svc.Client.Get(svc.URL + "/healthz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		})
		if err != nil {
			svc.Stop()
			return nil, err
		}
		if i >= 20 {
			hz = append(hz, float64(d))
		}
	}
	svc.Stop()
	m["serve.healthz_us"] = median(hz) / 1e3

	// The response store, on the loop's distinct answers.
	var bodies [][]byte
	var keys []string
	for _, b := range sc.Bodies {
		if b.first != nil {
			bodies = append(bodies, b.first)
			keys = append(keys, fmt.Sprintf("%064x", b.ID))
		}
	}
	var put, get []float64
	for rep := 0; rep < 5; rep++ {
		lru := serve.NewLRU(0, 0)
		for i, b := range bodies {
			put = append(put, float64(tr.Do("serve.store_put", op, -1, func() { lru.Put(keys[i], b) })))
		}
		for _, k := range keys {
			get = append(get, float64(tr.Do("serve.store_get", op, -1, func() { lru.Get(k) })))
		}
	}
	m["serve.store_put_us"] = median(put) / 1e3
	m["serve.store_get_us"] = median(get) / 1e3

	return sc, probeOverhead(cfg, chk, tr, sc, n, m)
}

// probeOverhead replays each distinct valid body of the script prefix
// serially: once over HTTP on a fresh server, once in process.
func probeOverhead(cfg Config, chk *Checker, tr *Tracer, sc *Script, n int, m map[string]float64) error {
	svc, err := StartService(cfg.Workers)
	if err != nil {
		return err
	}
	defer svc.Stop()
	var over []float64
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		b := sc.Items[i].Body
		if sc.Items[i].Class == ClassInvalid || seen[b.ID] {
			continue
		}
		seen[b.ID] = true
		op := tr.NewOp()
		var status int
		var data []byte
		var serr error
		httpD := tr.Do("serve.request_serial", op, -1, func() { status, _, data, serr = svc.Send(b) })
		if serr == nil && status != http.StatusOK {
			serr = fmt.Errorf("status %d: %s", status, data)
		}
		// In process twice, keeping the faster: the search's own
		// run-to-run noise would otherwise swamp the overhead.
		inproc, resp, err := inProcess(tr, op, b, cfg.Workers)
		if again, _, err2 := inProcess(tr, op, b, cfg.Workers); err2 == nil && again < inproc {
			inproc = again
		}
		if err == nil && serr == nil {
			if got, derr := serve.ReadResponse(bytes.NewReader(data)); derr != nil {
				err = derr
			} else if math.Float64bits(got.Best.Expected) != math.Float64bits(resp) {
				err = fmt.Errorf("served best %v != in-process best %v", got.Best.Expected, resp)
			}
		}
		chk.Op(fmt.Sprintf("replay of body %d", b.ID), serr, err)
		over = append(over, ms(httpD-inproc))
	}
	m["serve.overhead_ms"] = median(over)
	return nil
}

// inProcess runs what the service runs for body b — decode, hash,
// portfolio.Run, mc.Run — and returns the time spent and the winner's
// expected makespan. The wfio metrics come from probeWfio, not from
// here.
func inProcess(tr *Tracer, op int, b *Body, workers int) (time.Duration, float64, error) {
	var (
		f   *wfio.File
		req serve.Request
		err error
	)
	var total time.Duration
	if b.JSON {
		total += tr.Do("serve.inproc.decode_json", op, -1, func() {
			if err = json.Unmarshal(b.Data, &req); err == nil {
				f, err = req.Workflow.File()
			}
		})
	} else {
		req = b.Req
		total += tr.Do("serve.inproc.parse_text", op, -1, func() { f, err = wfio.Parse(bytes.NewReader(b.Data)) })
	}
	if err != nil {
		return 0, 0, err
	}
	total += tr.Do("serve.inproc.hash", op, -1, func() {
		wfio.CanonicalHash(f.Graph, wfio.HashParam("lambda", req.Lambda), wfio.HashParam("seed", req.Seed),
			wfio.HashParam("refine", req.Refine), wfio.HashParam("mc", req.MCTrials))
	})
	plat := failure.Platform{Lambda: req.Lambda, Downtime: req.Downtime}
	hs := sched.Paper14(sched.Options{RFSeed: req.Seed, Grid: req.Grid})
	var best sched.Result
	total += tr.Do("portfolio.run", op, -1, func() {
		best = portfolio.Best(portfolio.Run(hs, f.Graph, plat, portfolio.Options{Workers: workers, Refine: req.Refine}))
	})
	if req.MCTrials > 0 {
		total += tr.Do("mc.run", op, -1, func() {
			_, err = mc.Run(best.Schedule, plat, mc.Config{Trials: req.MCTrials, Seed: req.Seed + 99, Workers: workers,
				Percentiles: []float64{5, 50, 95, 99}, Factory: simulator.Factory()})
		})
	}
	return total, best.Expected, err
}

// traceServeMix is serve-mix's traced run: the service layers on the
// script's prefix, wfio on the workflows of its distinct bodies, the
// search layers on its largest body, refine and mc on its refine and
// mc bodies.
func traceServeMix(cfg Config, chk *Checker, tr *Tracer) (map[string]float64, error) {
	m := map[string]float64{}
	sc, err := probeServe(cfg, chk, tr, m)
	if err != nil {
		return nil, err
	}
	var largest, refineB, mcB *Body
	var insts []Instance
	instOf := map[*Body]Instance{}
	for _, it := range sc.Items[:cfg.ServeTraceItems] {
		b := it.Body
		if _, seen := instOf[b]; seen || it.Class == ClassInvalid {
			continue
		}
		inst, err := b.Instance()
		if err != nil {
			return nil, err
		}
		instOf[b] = inst
		insts = append(insts, inst)
		switch it.Class {
		case ClassMiss, ClassCollapsed:
			if largest == nil || b.N > largest.N {
				largest = b
			}
		case ClassRefine:
			refineB = b
		case ClassMC:
			mcB = b
		}
	}
	if largest == nil || refineB == nil || mcB == nil {
		return nil, errors.New("serve-mix: traced script prefix lacks a miss, refine or mc body")
	}
	probeWfio(tr, insts, m)
	largeInst, mcInst, refineInst := instOf[largest], instOf[mcB], instOf[refineB]
	probeSearch(cfg, chk, tr, sched.Paper14(sched.Options{RFSeed: largest.Req.Seed, Grid: largest.Req.Grid}), largeInst, m)
	mcBest := portfolio.Best(portfolio.Run(sched.Paper14(sched.Options{RFSeed: mcB.Req.Seed, Grid: mcB.Req.Grid}), mcInst.G, mcInst.Plat,
		portfolio.Options{Workers: cfg.Workers}))
	probeMC(cfg, chk, tr, mcBest.Schedule, mcInst.Plat, m)
	probeRefine(cfg, chk, tr, refineInst, m)
	rin, err := NewInstance(pwg.CyberShake, cfg.ProbeN, rng.StreamSeed(cfg.Seed, 1<<37), 10)
	if err != nil {
		return nil, err
	}
	probeRerun(cfg, chk, tr, rin, 16, cfg.ProbeTrials/4, m)
	return m, nil
}

// traceReactiveMC is reactive-mc's traced run: rerun on the workload's
// engine settings, search and mc on its instance.
func traceReactiveMC(cfg Config, chk *Checker, tr *Tracer) (map[string]float64, error) {
	inst, err := reactiveInstance(cfg, 0)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	probeRerun(cfg, chk, tr, inst, cfg.ReactiveGrid, cfg.ReactiveTrials, m)
	best := probeSearch(cfg, chk, tr, sched.Paper14(sched.Options{Grid: cfg.ReactiveGrid}), inst, m)
	probeMC(cfg, chk, tr, best.Schedule, inst.Plat, m)
	probeWfio(tr, []Instance{inst}, m)
	// refine and serve on small probes; rerun above stays the
	// workload's own.
	pin, err := NewInstance(pwg.Montage, cfg.ProbeN, rng.StreamSeed(cfg.Seed, 1<<36), 0)
	if err != nil {
		return nil, err
	}
	probeRefine(cfg, chk, tr, pin, m)
	_, err = probeServe(probeCfg(cfg), chk, tr, m)
	return m, err
}
