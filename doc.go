// Package repro reproduces "Scheduling computational workflows on
// failure-prone platforms" (Aupy, Benoit, Casanova, Robert — INRIA
// RR-8609 / IPDPS 2015) as a Go library.
//
// The library lives under internal/: the Theorem 3 schedule evaluator
// (internal/core), the failure model (internal/failure), the workflow
// DAG substrate (internal/dag), exact algorithms for forks, joins and
// chains (internal/fork, internal/join, internal/chains), the
// NP-completeness reduction (internal/npc), the Section 5 heuristics
// (internal/sched), the deterministic parallel portfolio-search
// engine (internal/portfolio), Pegasus-like workflow generators
// (internal/pwg), a Monte-Carlo fault-injection simulator
// (internal/simulator), the sharded parallel Monte-Carlo engine
// (internal/mc), the Section 6 experiment harness
// (internal/experiments), the reactive rescheduling engine
// (internal/rerun), the HTTP scheduling service (internal/serve),
// and the wfvet static-analysis suite that mechanically enforces the
// cross-cutting engine contracts (internal/analysis, cmd/wfvet).
//
// # The Monte-Carlo engine
//
// internal/mc batches fault-injection trials across a worker pool:
// trials are partitioned into fixed-size shards, shard k of job j
// draws from the deterministic stream
// rng.Stream(rng.StreamSeed(seed, j), k), and per-shard Welford
// accumulators are merged exactly in shard order. The resulting
// statistics (means, variances, percentiles, histograms) are
// bit-identical for any worker count — the determinism contract is
// (Seed, Trials, ShardSize), never Workers. The engine is generic
// over a per-shard trial runner; internal/simulator provides
// factories for the paper's blocking model, arbitrary inter-failure
// laws (Weibull robustness studies) and non-blocking checkpointing,
// and its Batch helper remains a serial single-stream compatibility
// wrapper that reproduces the historical results bit for bit.
//
// # The portfolio engine
//
// internal/portfolio is the search-side twin of the Monte-Carlo
// engine: the Section 5 heuristic portfolio — every linearization ×
// checkpointing strategy, each sweeping checkpoint counts N through
// the Theorem 3 evaluator — is fanned out over (heuristic, N-chunk)
// cells on a worker pool, one pooled core.Evaluator per worker
// (evaluators are stateful; core documents the single-goroutine
// ownership rule and the pool enforces it). Candidates are reduced
// under a canonical total order (lowest expected makespan, then
// fewest checkpoints, then lowest strategy index / N), so the
// winning schedule is byte-identical for any worker count and equal
// to the serial sched.RunAll, which remains the reference path built
// on the same primitives via sched.NSweeper. The experiment harness
// (including the scale-* scenarios at n = 2000), the ablation
// studies, refinement passes (refine.ImproveWith) and the cmd
// binaries all route their searches through the engine behind
// -workers flags.
//
// # The incremental sweep evaluator
//
// The portfolio's hot path is the checkpoint-count sweep: adjacent
// sweep points of a ranked strategy differ by a single flipped
// checkpoint bit, yet each point used to pay a full O(n²) Theorem 3
// evaluation (O(n³) per sweep, transcendental-bound). core's
// expectedMakespan is therefore factorized — every exp/expm1 depends
// on a single lost-set entry or task constant, combined by running
// products — and core.DeltaEvaluator persists the lost-set matrix and
// the running products between evaluations. Both evaluators derive
// each lost-set row from the one before it: only task k and the tasks
// placed on the diagonal (k, k) move between rows k and k+1, so only
// the entries they land in are re-summed and the rest are copied. Both
// read the lost-dependent factors from a per-column memo keyed by the
// lost entry's bits, so transcendentals are paid once per run of equal
// values down a column, not per pair. A flip at position j reuses rows
// k ≤ j verbatim, runs the row recurrence from row j until no row
// places a flipped task, and rebuilds the accumulator suffix with
// plain multiplications and memo lookups — O(n²) amortized flops per
// sweep step and results
// that are bit-identical (math.Float64bits) to a cold Evaluator.Eval,
// so every determinism contract below survives with the fast path on
// or off (core.SetDeltaPath). Native fuzz plus testing/quick
// differential harnesses (internal/core), Monte-Carlo
// cross-validation of delta-produced schedules (internal/simulator)
// and a byte-identity regression on cmd/wfsched -refine enforce the
// equivalence; BENCH_sweep.json records the measured speedups
// (≥3× on BenchmarkPortfolioParallel at n = 700, ~6× on a full
// exhaustive sweep). Sweeps opt in by declaring sched.DeltaSweepable;
// ranked strategies and CkptPer do, refine.ImproveWith and
// sched.CkptGreedy use it for their one-bit neighbourhoods, and
// internal/portfolio leases the delta state with its evaluators.
//
// # Allocation discipline and bound-based pruning
//
// Both evaluators keep their O(n²) state in flat arenas — one backing
// array per matrix, carved into row views — sized once per
// (graph, schedule) shape and reused across evaluations, so the hot
// paths are allocation-free: a warm delta flip and a warm cold Eval
// run at 0 allocs/op, and a fresh evaluator sizes itself in a small
// constant number of allocations. testing.AllocsPerRun gates in
// internal/core pin all three on every plain `go test ./...`.
//
// On top of the evaluators, the N-sweeps prune provably losing
// candidates: core.MaskBound lower-bounds the expected makespan of
// any schedule from its checkpoint mask alone (Base plus per-task
// increments, from the monotonicity of failure.ExpectedTime), and
// strategies expose it per checkpoint count via sched.BoundedSweeper.
// For ranked strategies the bound is a prefix sum — monotone in N —
// so the serial sweepApply and the portfolio cells bisect the prune
// cutoff instead of testing every N; the parallel engine additionally
// shares a per-heuristic atomic incumbent across cells and skips
// whole cells whose every N is prunable. A candidate is discarded
// only when its bound exceeds the incumbent beyond the core.PruneSlack
// floating-point margin, so the canonical winner is bit-identical
// with pruning on or off (core.SetPrunePath) — pinned by differential
// harnesses in internal/sched and internal/portfolio across the four
// DAG families, all strategies and worker counts. refine.ImproveWith
// reuses the same bound to skip provably rejected add-checkpoint
// flips without spending evaluation budget.
//
// # Benchmark methodology and the regression gate
//
// BENCH_sweep.json is the benchmark trajectory: labelled multi-sample
// entries maintained by cmd/benchjson (`make bench-json`). The hot
// paths are additionally gated: `make bench-gate` (blocking in CI)
// re-runs the gated benchmark set several times and compares the
// samples against the checked-in 'gate-baseline' entry with an
// offline benchstat equivalent — median ratios, two-sided
// Mann–Whitney U significance, geomean normalization so uniform
// machine-speed shifts cancel — and fails on a statistically
// significant regression past the threshold. Deliberate performance
// changes refresh the baseline via `make bench-baseline` and commit
// the result.
//
// # The reactive rescheduling engine
//
// The paper's pipeline is static: one portfolio search up front, then
// in-place retries under failures. internal/rerun executes a schedule
// through the simulator's resumable primitives (Begin/TryTask/Finish)
// as an event stream and re-runs the portfolio on the residual
// workflow at every failure. The residual model matches what
// execution actually pays: the never-completed tasks, plus a recovery
// stub per on-disk input a pending task reads, plus a re-execution
// node per completed-but-lost output still read — completed work
// nothing reads is neither re-executed nor re-priced. Residual
// searches are pure functions of the (completed, on-disk) state and
// are memoized in a plan cache shared across Monte-Carlo shards; the
// engine inherits the determinism contract (fixed seed: bit-identical
// event trace and makespan for any worker count). Engine.CompareMC
// pairs static and reactive runs under common random numbers;
// cmd/wfsched -reactive, the reactive-* experiment family and
// examples/reactive sit on top, and BenchmarkReactiveRun is part of
// the blocking benchmark gate.
//
// # The scheduling service
//
// internal/serve and cmd/wfserve put both engines behind a
// long-running HTTP service. A request — the wfio text format or its
// JSON binding (internal/wfio's JSONWorkflow), plus platform and
// search options — is reduced to a canonical hash
// (wfio.CanonicalHash: tasks, edges and parameters, independent of
// declaration order). Because both engines are bit-deterministic for
// any worker count, the response body is a pure function of that
// hash: a bounded concurrent-safe LRU caches encoded responses, and
// concurrent identical requests collapse singleflight-style onto one
// in-flight search, so cached, collapsed and cold answers are
// byte-identical (cache status travels in the X-Wfserve-Cache
// header). The server splits one worker budget across in-flight
// evaluations — a pure throughput decision under the determinism
// contract. The cache sits behind the serve.Store interface: the
// in-memory double-bounded LRU is the default, and serve.DiskStore
// (-cache-dir) persists one file per hash by atomic rename so a
// restarted server answers old requests as byte-identical hits. The
// service is observable without touching that contract:
// internal/metrics is a dependency-free counter/gauge/histogram
// library with Prometheus text exposition, wired through the serve
// layer as read-only observers (per-endpoint request counts and
// latency, dedup outcomes, engine timings, store occupancy, load
// gauges), and every request emits one structured log/slog record
// (endpoint, status, latency, cache outcome, canonical hash).
// Endpoints: POST /v1/schedule, GET /healthz, GET /stats,
// GET /metrics.
//
// # Correctness tooling
//
// The contracts above — bit-identical determinism for any worker
// count, canonical float tie-breaking, single-owner evaluators — are
// enforced mechanically by cmd/wfvet, a custom multichecker over
// internal/analysis that runs as a blocking CI job and inside
// `make lint`. Four analyzers encode the contracts: maporder (no
// order-sensitive range over maps in the deterministic packages
// core, sched, portfolio, mc, rerun, refine, wfio, serve, metrics —
// iterate
// sorted keys or keep the body commutative), nondet (no time.Now,
// global math/rand, os.Getenv or multi-way select there; randomness
// comes from internal/rng stream seeding), floatcmp (no ==/!=
// between computed floats and no switch on float tags in engine
// packages; candidate ordering goes through sched.CanonicalBetter,
// bit-identity through math.Float64bits), and evalshare (no
// *core.Evaluator/*core.DeltaEvaluator captured by a go literal,
// passed to a go call or sent on a channel — workers lease their own
// via the portfolio pool). A justified exception is annotated in
// place with `//wfvet:<analyzer> <reason>`; the reason is mandatory,
// and bare or misspelled directives are themselves findings. The
// framework is a small dependency-free mirror of the
// golang.org/x/tools/go/analysis API — the module deliberately has
// no external dependencies so every result is reproducible from a Go
// toolchain alone, offline; the matching API shape keeps a future
// migration to the real x/tools multichecker mechanical. CI
// additionally re-runs the tests with -shuffle=on (blocking) and
// runs a non-blocking govulncheck advisory scan.
//
// Binaries: cmd/experiments regenerates every figure of the paper
// (with -mc N it also re-validates each figure through the engine);
// cmd/wfsched schedules one workflow with the paper's heuristics;
// cmd/wfgen emits synthetic workflows; cmd/evaluate computes the
// expected makespan of a user-supplied schedule; cmd/wfserve serves
// scheduling over HTTP with the deterministic result cache.
//
// The benchmarks in bench_test.go regenerate one data point of every
// figure (fig2a..fig7d) plus micro-benchmarks of the evaluator, the
// simulator, the generators and both parallel engines
// (BenchmarkMCParallel vs BenchmarkMCSerialBatch,
// BenchmarkPortfolioParallel vs BenchmarkPortfolioSerial).
package repro
