package core

import (
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/dag"
	"repro/internal/failure"
)

// deltaPathOff globally disables the delta fast paths wired through
// sched, refine and portfolio (they fall back to cold evaluation).
// Results are bit-identical either way — that equivalence is exactly
// what the before/after regression tests flip this switch to prove —
// so the knob exists for tests and A/B timing, not for correctness.
var deltaPathOff atomic.Bool

// DeltaPathEnabled reports whether the engines' delta fast paths are
// enabled (the default).
func DeltaPathEnabled() bool { return !deltaPathOff.Load() }

// SetDeltaPath enables or disables the delta fast paths and returns
// the previous setting. Intended for tests (byte-identity regressions,
// A/B benchmarks); flipping it mid-run is safe but pointless.
func SetDeltaPath(on bool) (prev bool) {
	return !deltaPathOff.Swap(!on)
}

// DeltaEvaluator is the incremental companion of Evaluator: it keeps
// the Theorem-3 state of the last evaluated schedule — the lost-set
// matrix, the factorized probability products and the row
// accumulators — and, when asked to evaluate a schedule that differs
// from the loaded one only in its checkpoint mask, recomputes only the state the flipped bits can reach. The
// result is bit-identical (math.Float64bits) to a cold
// Evaluator.Eval of the same schedule; the differential fuzz and
// property tests in delta_test.go enforce this on every step.
//
// # Why flips are cheap
//
// Four structural facts bound the work of a flip whose first flipped
// position is j (all positions are 1-based indices into the
// linearization):
//
//   - Lost-set rows k ≤ j read only the checkpoint flags of positions
//     < k ≤ j, so they are byte-for-byte the same computation and are
//     reused verbatim.
//   - Every row is derived from the one before it (see
//     schedState.lostSets): going from row k to row k+1 only task k
//     and the tasks placed on the diagonal (k, k) move, and only the
//     entries they land in are re-summed; the rest are copied. The
//     flip rebuilds row j's placement with one DFS and runs that
//     recurrence through the later rows, writing each over the stored
//     row with a bitwise compare that records the row's first changed
//     entry. It stops at the first row past the last flip that places
//     no flipped position: from there on no row reads a flipped flag.
//   - The running products P(k, ·) of the factorized makespan pass
//     (see Evaluator.expectedMakespan) are stored (pp); each row's
//     products strictly before its first changed factor are reused as
//     stored, and only the tail is rebuilt. Rows i < j of the
//     accumulators are reused as stored.
//   - The lost-dependent transcendentals are not stored at all: both
//     evaluators read them from a per-column memo (colMemo) keyed by
//     the lost entry's bits, which recomputes them once per run of
//     equal values down a column. A flip changes about one entry per
//     affected row, so it adds about one miss per changed entry; the
//     memo of a column whose diagonal or checkpoint flag changed is
//     revalidated once, at the start of the accumulation pass.
//
// A full sweep over checkpoint counts N = 1..n−1 of a ranked strategy
// (adjacent masks differ by one bit) therefore costs O(n²) amortized
// flops and bit comparisons per step, plus transcendentals only on
// memo misses — a fraction of a percent of the pairs on the pwg
// families.
//
// # Memory
//
// The O(n²) state is two (n+1)×(n+1) float64 matrices — lost and pp,
// ≈ 16·n² bytes (8 MB at n = 700, 64 MB at n = 2000) per evaluator —
// each a single flat arena, so a resize costs O(1) allocations and
// row-major passes walk memory linearly. Everything else — the memo,
// the placement vector and its buckets, the successor lists — is
// O(n+E). Engines that lease one evaluator per worker should budget
// accordingly at very large n.
//
// # Ownership
//
// Like Evaluator, a DeltaEvaluator is owned by one goroutine at a
// time (see the ownership rule on Evaluator). The pooled engines
// obtain one through Evaluator.Delta, which ties it to the parent's
// lease.
type DeltaEvaluator struct {
	schedState

	graph  *dag.Graph
	order  []int  // copy of the loaded linearization
	mask   []bool // current checkpoint mask, task-id space
	pos    []int  // task id -> 1-based position
	n      int
	loaded bool
	value  float64

	// Theorem-3 state, persisted between evaluations: lost (in
	// schedState) and pp.
	pp [][]float64 // pp[k][t]: running product P(k,·) through factor t
	p0 []float64   // p0[i]: k = 0 running product through position i

	// Row accumulators, persisted so the clean prefix is reused.
	probSum, exSum []float64
	pz             []float64
	exRow          []float64 // E[X_i]
	totPrefix      []float64 // Σ_{i'≤i} E[X_i']

	// Scratch.
	flips  []int // pending flipped positions, ascending
	minChg []int // per row: first changed window-factor position

	// cold evaluates schedules whose mask diverged too far from the
	// loaded one for incremental maintenance to win; the loaded state
	// is left untouched (still valid for its recorded mask).
	// coldStreak counts consecutive such fallbacks: the second one in
	// a row reloads instead, so a sweep that moved to a genuinely new
	// mask neighbourhood (say the next strategy's ranking) pays one
	// cold evaluation and is then incremental again, while state from
	// an isolated outlier probe is kept.
	cold       *Evaluator
	coldStreak int

	// table caches the (graph, platform) transcendental factors,
	// shared with the cold parent when pooled (see ensureTable).
	table *FactorTable
}

// NewDeltaEvaluator returns an empty incremental evaluator; the first
// EvalSchedule call performs a full (cold-equivalent) evaluation and
// fills the caches.
func NewDeltaEvaluator() *DeltaEvaluator { return &DeltaEvaluator{} }

// Delta returns the evaluator's lazily created incremental companion.
// The companion has fully independent buffers — interleaving e.Eval
// and e.Delta().EvalSchedule calls is safe (within one goroutine) —
// and it lives on the parent so that engines which lease whole
// Evaluators from a pool (internal/portfolio) get an incremental
// evaluator under the same lease without any signature change.
func (e *Evaluator) Delta() *DeltaEvaluator {
	if e.delta == nil {
		e.delta = NewDeltaEvaluator()
		// Far-diverged masks fall back to the parent — same goroutine,
		// sequential use, so sharing its buffers is safe and avoids a
		// second O(n²) lost matrix.
		e.delta.cold = e
	}
	return e.delta
}

// EvalPoint returns the evaluation function engines should call for
// repeated evaluations of schedules that differ by a few checkpoint
// bits (sweep points, flip neighbourhoods): the evaluator's
// incremental companion when the delta fast path is enabled, cold
// evaluation otherwise. Both produce bit-identical values; only the
// cost differs. This is the single gate every delta consumer
// (sched's sweeps, refine, greedy insertion) routes through.
func (e *Evaluator) EvalPoint() func(*Schedule, failure.Platform) float64 {
	if DeltaPathEnabled() {
		return e.Delta().EvalSchedule
	}
	return func(s *Schedule, p failure.Platform) float64 { return e.Eval(s, p) }
}

// EvalSchedule computes the expected makespan of s on platform p,
// bit-identical to Evaluator.Eval(s, p). If s shares the graph,
// linearization and platform of the previously evaluated schedule,
// only the state reachable from the flipped checkpoint bits is
// recomputed; otherwise a full evaluation reloads the caches. Like
// Eval it panics on invalid schedules (call Validate for user input).
//
// Graph identity is by pointer: mutating a graph's tasks or edges
// (e.g. ScaleCkptCosts) between evaluations that share it would make
// the cached state stale — mutate before the first evaluation, or
// call Invalidate after. The schedule's Order and Ckpt slices are
// compared by content, so reusing or mutating those is always safe.
func (d *DeltaEvaluator) EvalSchedule(s *Schedule, p failure.Platform) float64 {
	g := s.Graph
	n := g.N()
	if n == 0 {
		return 0
	}
	if p.FailureFree() {
		// Mirror Evaluator.Eval's λ = 0 short-circuit exactly.
		total := 0.0
		for id := 0; id < n; id++ {
			total += g.Weight(id)
			if s.Ckpt[id] {
				total += g.CkptCost(id)
			}
		}
		return total
	}
	if !d.matches(s, p) {
		return d.loadFull(s, p)
	}
	diffs := 0
	for id := 0; id < n; id++ {
		if s.Ckpt[id] != d.mask[id] {
			diffs++
		}
	}
	if diffs == 0 {
		d.coldStreak = 0
		return d.value
	}
	if 2*diffs >= n {
		// The masks share too little for incremental maintenance to
		// win: evaluate cold, leaving the loaded state untouched (it
		// remains valid for its recorded mask, so a later nearby mask
		// still gets the fast path) — unless the previous evaluation
		// already fell back, in which case the sweep has moved on and
		// we reload around the new mask. Identical bits either way.
		if d.coldStreak == 0 {
			d.coldStreak = 1
			if d.cold == nil {
				d.cold = NewEvaluator()
			}
			return d.cold.Eval(s, p)
		}
		d.coldStreak = 0
		return d.loadFull(s, p)
	}
	d.coldStreak = 0
	d.flips = d.flips[:0]
	for id := 0; id < n; id++ {
		if s.Ckpt[id] != d.mask[id] {
			d.mask[id] = s.Ckpt[id]
			j := d.pos[id]
			d.ckpt[j] = s.Ckpt[id]
			d.setGate(j)
			d.flips = append(d.flips, j)
		}
	}
	return d.applyFlips()
}

// matches reports whether s is the loaded schedule modulo its
// checkpoint mask.
func (d *DeltaEvaluator) matches(s *Schedule, p failure.Platform) bool {
	if !d.loaded || d.graph != s.Graph || d.plat != p || len(d.order) != len(s.Order) {
		return false
	}
	for i, id := range s.Order {
		if d.order[i] != id {
			return false
		}
	}
	return true
}

// Invalidate drops the loaded schedule, forcing the next EvalSchedule
// to evaluate cold.
func (d *DeltaEvaluator) Invalidate() {
	d.loaded = false
	// Factor tables key on graph identity; Invalidate signals the
	// graph may have been mutated in place, so drop the table too.
	d.table = nil
	if d.cold != nil {
		d.cold.table = nil
	}
}

// resizeDelta prepares all buffers for an n-task schedule.
func (d *DeltaEvaluator) resizeDelta(n int) {
	d.resizeState(n)
	if cap(d.pz) < n+1 {
		d.pp = arenaF64(n+1, n+1)
		d.p0 = make([]float64, n+1)
		d.probSum = make([]float64, n+1)
		d.exSum = make([]float64, n+1)
		d.pz = make([]float64, n+1)
		d.exRow = make([]float64, n+1)
		d.totPrefix = make([]float64, n+1)
		d.pos = make([]int, n)
		d.minChg = make([]int, n+1)
		// Scratch is sized for the hot path up front, so flips never
		// grow a slice mid-evaluation: the flip path is zero-alloc
		// (pinned by TestDeltaFlipAllocFree).
		d.flips = make([]int, 0, n+1)
	}
	d.pp = d.pp[:n+1]
	d.p0 = d.p0[:n+1]
	d.probSum = d.probSum[:n+1]
	d.exSum = d.exSum[:n+1]
	d.pz = d.pz[:n+1]
	d.exRow = d.exRow[:n+1]
	d.totPrefix = d.totPrefix[:n+1]
	d.pos = d.pos[:n]
	d.minChg = d.minChg[:n+1]
}

// loadFull performs a cold-equivalent evaluation of s, rebuilding
// all state, and returns the expected makespan.
func (d *DeltaEvaluator) loadFull(s *Schedule, p failure.Platform) float64 {
	g := s.Graph
	n := g.N()
	d.resizeDelta(n)
	d.graph = g
	d.n = n
	d.order = append(d.order[:0], s.Order...)
	d.mask = append(d.mask[:0], s.Ckpt...)
	d.loadSchedule(s)
	for id := 0; id < n; id++ {
		d.pos[id] = d.posBuf[id] + 1
	}
	d.loadFactors(d.ensureTable(g, p))
	d.lostSets(1, n, nil, nil)
	d.syncMemos(1, n, true)
	d.totPrefix[0] = 0
	for k := 0; k <= n; k++ {
		d.minChg[k] = 0 // nothing is stored yet: rebuild all products
	}
	d.value = d.accumulate(1)
	d.loaded = true
	d.coldStreak = 0
	return d.value
}

// applyFlips incrementally re-evaluates after the pending checkpoint
// flips and returns the new expected makespan.
func (d *DeltaEvaluator) applyFlips() float64 {
	n := d.n
	sort.Ints(d.flips)
	dmin := d.flips[0]

	// Phase 1: lost-set maintenance. Rows k ≤ dmin read no flipped
	// flag and are kept as stored; lostSets rebuilds row dmin's
	// placement and derives the later rows from it, writing each over
	// the stored row, until a row places no flipped position. minChg[k]
	// tracks the first changed window factor of each row — a changed
	// entry (k, t) changes the window factor of t, a flipped δ_t
	// toggles the gate of factor t for every row k < t — so phase 2 can
	// reuse stored running products strictly before it.
	for k := 0; k <= n; k++ {
		d.minChg[k] = n + 1
	}
	if dmin < n {
		d.lostSets(dmin, n, d.minChg, d.flips)
	}
	// Fold the flipped fc gates into minChg: the first flip > k caps
	// row k's unchanged-product prefix (flips is ascending).
	idx := 0
	for k := 0; k <= n; k++ {
		for idx < len(d.flips) && d.flips[idx] <= k {
			idx++
		}
		if idx < len(d.flips) && d.flips[idx] < d.minChg[k] {
			d.minChg[k] = d.flips[idx]
		}
	}

	// Phase 2: rebuild the accumulator suffix from the first flip. The
	// changed entries, diagonals and flags need no maintenance of their
	// own: the memo recomputes the factors of a changed entry when the
	// pass meets it, and revalidates a column whose diagonal or flag
	// changed.
	d.value = d.accumulate(dmin)
	d.flips = d.flips[:0]
	return d.value
}

// accumulate rebuilds probSum/exSum/pz/exRow/totPrefix for rows
// i ≥ dmin and returns the total expected makespan. It replays
// Evaluator.expectedMakespan's exact loop structure — k = 0 band
// first, then pushes in increasing k interleaved with row
// finalization — reading the same memoized factors and the stored
// running products, so every accumulator receives the same additions
// in the same order and the result is bit-identical.
func (d *DeltaEvaluator) accumulate(dmin int) float64 {
	n := d.n
	if dmin < 1 {
		dmin = 1
	}
	// Columns < dmin kept their diagonal and flag; revalidate the rest.
	d.syncMemos(dmin, n, false)
	for i := dmin; i <= n; i++ {
		d.probSum[i] = 0
		d.exSum[i] = 0
	}

	// k = 0 band: running product of per-task success factors.
	p0run := 1.0
	if dmin >= 2 {
		p0run = d.p0[dmin-1]
	}
	for i := dmin; i <= n; i++ {
		if i >= 2 {
			pr := p0run
			d.probSum[i] += pr
			_, cv := d.factors(i, 0)
			d.exSum[i] += pr * cv
		}
		p0run *= d.fw[i]
		p0run *= d.gate[i]
		d.p0[i] = p0run
	}

	// k ≥ 1 pushes interleaved with finalization.
	for i := 1; i <= n; i++ {
		if i >= dmin {
			last := 1 - d.probSum[i]
			if last < 0 {
				last = 0
			} else if last > 1 {
				last = 1
			}
			_, cv := d.factors(i, d.lostAbove(i))
			d.exRow[i] = d.exSum[i] + last*cv
			d.pz[i-1] = last
		}
		k := i - 1
		if k < 1 {
			continue
		}
		startIP := k + 2
		if dmin > startIP {
			startIP = dmin
		}
		if startIP > n {
			continue
		}
		// The running products are maintained even when pz[k] == 0
		// suppresses the contributions (as it does in the cold pass),
		// so a later evaluation can resume from a valid pp row.
		if d.pz[k] > 0 {
			d.pushRow(k, startIP)
		} else {
			d.maintainRow(k)
		}
	}

	run := 0.0
	if dmin >= 2 {
		run = d.totPrefix[dmin-1]
	}
	for i := dmin; i <= n; i++ {
		run += d.exRow[i]
		d.totPrefix[i] = run
	}
	return run
}

// pushRow accumulates row k's contributions into probSum/exSum for
// ip ≥ startIP. Stored running products strictly before the row's
// first changed factor (minChg[k]) are read back instead of
// recomputed — for a typical flip most of the row is in that phase —
// and the product tail from the changed factor on is rebuilt and
// stored for the next evaluation.
func (d *DeltaEvaluator) pushRow(k, startIP int) {
	n := d.n
	lostk, ppk, gate, memo := d.lost[k], d.pp[k], d.gate, d.memo
	probSum, exSum := d.probSum, d.exSum
	_, _, _, _ = lostk[n], ppk[n], gate[n], memo[n] // bounds hints
	_, _ = probSum[n], exSum[n]
	pzk := d.pz[k]
	b := d.minChg[k]
	// Phase 1: products through factor ip−1 < b are valid as stored.
	ip := startIP
	for ; ip <= n && ip-1 < b; ip++ {
		P := ppk[ip-1]
		if P == 0 {
			// Once a prefix product underflows to exact zero every
			// later product is zero too (factors are finite), so the
			// rest of the row contributes exactly +0.0 — cold
			// evaluation breaks at the same point.
			return
		}
		pr := P * pzk
		probSum[ip] += pr
		// d.factors, inlined by hand (the call would not be).
		m := &memo[ip]
		if math.Float64bits(lostk[ip]) != m.key {
			d.fill(ip, lostk[ip])
		}
		if cv := m.cond; cv != 0 {
			exSum[ip] += pr * cv
		}
	}
	if ip > n {
		return
	}
	// Phase 2: rebuild the product tail from the changed factor.
	P := 1.0
	if ip-2 >= k+1 {
		P = ppk[ip-2]
	}
	bf, _ := d.factors(ip-1, lostk[ip-1])
	for ; ip <= n; ip++ {
		t := ip - 1
		P *= bf
		P *= gate[t]
		ppk[t] = P
		if P == 0 {
			for t2 := t + 1; t2 <= n-1; t2++ {
				ppk[t2] = 0
			}
			return
		}
		pr := P * pzk
		probSum[ip] += pr
		m := &memo[ip]
		if math.Float64bits(lostk[ip]) != m.key {
			d.fill(ip, lostk[ip])
		}
		if cv := m.cond; cv != 0 {
			exSum[ip] += pr * cv
		}
		bf = m.bf
	}
}

// maintainRow rebuilds row k's product tail from its first changed
// factor without accumulating, run when pz[k] == 0 suppresses the
// row's contributions (as it does in the cold pass) so that a later
// evaluation can still resume from a valid pp row.
func (d *DeltaEvaluator) maintainRow(k int) {
	n := d.n
	b := d.minChg[k]
	if b > n {
		return // no factor of this row changed
	}
	lostk, ppk := d.lost[k], d.pp[k]
	ip := b + 1
	if ip < k+2 {
		ip = k + 2
	}
	P := 1.0
	if ip-2 >= k+1 {
		P = ppk[ip-2]
	}
	for ; ip <= n; ip++ {
		t := ip - 1
		bf, _ := d.factors(t, lostk[t])
		P *= bf
		P *= d.gate[t]
		ppk[t] = P
		if P == 0 {
			for t2 := t + 1; t2 <= n-1; t2++ {
				ppk[t2] = 0
			}
			return
		}
	}
}
