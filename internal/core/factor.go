package core

import (
	"fmt"
	"math"

	"repro/internal/dag"
	"repro/internal/failure"
)

// FactorTable caches the transcendentals of the makespan pass that
// depend only on the (graph, platform) pair — not on the schedule's
// linearization or checkpoint mask: the per-task success factors
// e^{−λw} and e^{−λc}. (The factors that depend on a lost-set entry
// are memoized per column instead; see colMemo.) Both are keyed by
// task id; evaluators permute them into position space when they load
// a schedule, so repeated loads of the same instance — every cell of a
// portfolio search — cost zero transcendentals here.
//
// A FactorTable is immutable after NewFactorTable returns. That is
// what makes it the one piece of evaluator state that MAY be shared
// across goroutines: pooled engines compute one table per (graph,
// platform) and install it in every leased evaluator. wfvet's
// evalshare analyzer sanctions exactly this — sharing the table is
// allowed, writing to its fields outside this file is a finding.
//
// The factor values are computed with the byte-for-byte expressions
// the evaluators previously used inline, so results with and without
// a shared table are bit-identical (the differential tests pin this).
type FactorTable struct {
	graph *dag.Graph
	plat  failure.Platform

	fw []float64 // task id -> e^{−λ w}
	fc []float64 // task id -> e^{−λ c}
}

// NewFactorTable computes the factor table of the (graph, platform)
// pair. Cost: two transcendentals per task, paid once — the point is
// to pay it once per instance instead of once per evaluator load.
func NewFactorTable(g *dag.Graph, p failure.Platform) *FactorTable {
	n := g.N()
	t := &FactorTable{
		graph: g,
		plat:  p,
		fw:    make([]float64, n),
		fc:    make([]float64, n),
	}
	if !p.FailureFree() {
		for id := 0; id < n; id++ {
			t.fw[id] = math.Exp(-p.Lambda * g.Weight(id))
			t.fc[id] = math.Exp(-p.Lambda * g.CkptCost(id))
		}
	}
	return t
}

// Matches reports whether the table was built for exactly this
// (graph, platform) pair. Graph identity is by pointer, like the
// DeltaEvaluator's cache identity: mutating a graph's tasks after
// building a table for it makes the table stale (build a new one).
func (t *FactorTable) Matches(g *dag.Graph, p failure.Platform) bool {
	return t != nil && t.graph == g && t.plat == p
}

// SetFactorTable installs a shared read-only factor table. Evaluators
// build (and cache) their own table on demand, so this is purely an
// optimization: pooled engines call it with one table per (graph,
// platform) so that no two leased evaluators recompute the same
// transcendentals. Installing a table for a different instance than
// the one evaluated is harmless — it is ignored and replaced by a
// self-built table on the next evaluation.
func (e *Evaluator) SetFactorTable(t *FactorTable) {
	e.table = t
	if e.delta != nil {
		e.delta.table = t
	}
}

// ensureTable returns a factor table matching (g, p): the installed
// or previously built one when it matches, a freshly built (and
// cached) one otherwise.
func (e *Evaluator) ensureTable(g *dag.Graph, p failure.Platform) *FactorTable {
	if !e.table.Matches(g, p) {
		e.table = NewFactorTable(g, p)
	}
	return e.table
}

// ensureTable is the DeltaEvaluator's variant: it prefers the cold
// parent's table (pooled engines install shared tables on the parent)
// before building its own.
func (d *DeltaEvaluator) ensureTable(g *dag.Graph, p failure.Platform) *FactorTable {
	if !d.table.Matches(g, p) {
		if d.cold != nil && d.cold.table.Matches(g, p) {
			d.table = d.cold.table
		} else {
			d.table = NewFactorTable(g, p)
		}
	}
	return d.table
}

// colMemo memoizes, for one position t, the two factors of the makespan
// pass that depend on a lost-set entry x = lost[k][t]:
//
//	bf   = e^{−λ(x + w_t)}, the window factor of P(k, ·) at t;
//	cond = E[X_t | Z^t_k] = ExpectedTime(x + w_t, δ_t c_t, lost[t][t] − x).
//
// Down a column the lost entries rarely change — on the pwg families
// well under 1 % of entries differ from the one above them, and most
// are exactly 0 — so keeping the factors of the last value seen turns
// almost every pair's three transcendentals into one bit comparison.
// The memo is a pure-function cache: its factors are exact for any row
// whose entry has the key's bits, as long as the column's other inputs
// (diag, ck, w_t and λ) are the ones it was filled with.
type colMemo struct {
	key      uint64  // Float64bits of the x the factors belong to
	bf, cond float64 // the factors of x
	diag, ck float64 // lost[t][t] and δ_t·c_t that cond was computed for
}

// loadFactors installs the table's per-task factors in position space
// for the loaded schedule.
func (ss *schedState) loadFactors(tab *FactorTable) {
	ss.plat = tab.plat
	for id, p := range ss.posBuf {
		ss.fw[p+1] = tab.fw[id]
		ss.fc[p+1] = tab.fc[id]
		ss.setGate(p + 1)
	}
}

// setGate sets gate[i] from δ_i: products multiply by the gate
// unconditionally, and x·1 == x bit for bit.
func (ss *schedState) setGate(i int) {
	ss.gate[i] = 1
	if ss.ckpt[i] {
		ss.gate[i] = ss.fc[i]
	}
}

// syncMemos revalidates the memos of columns from..n against their
// current diagonal and checkpoint flag. A column whose diagonal or
// flag changed — every column when force is set, after a load — is
// refilled with the factors of x = 0, the k = 0 event every pass
// looks up first.
func (ss *schedState) syncMemos(from, n int, force bool) {
	for t := from; t <= n; t++ {
		m := &ss.memo[t]
		diag, ck := ss.lost[t][t], 0.0
		if ss.ckpt[t] {
			ck = ss.c[t]
		}
		if force || math.Float64bits(diag) != math.Float64bits(m.diag) || math.Float64bits(ck) != math.Float64bits(m.ck) {
			m.diag, m.ck = diag, ck
			ss.fill(t, 0)
		}
	}
}

// factors returns the window factor and conditional expectation of
// position t for lost entry x, recomputing them only when x differs
// (by bits, so +0/−0 and NaNs never alias) from the column's key.
func (ss *schedState) factors(t int, x float64) (bf, cond float64) {
	m := &ss.memo[t]
	if math.Float64bits(x) != m.key {
		ss.fill(t, x)
	}
	return m.bf, m.cond
}

// fill computes column t's factors for lost entry x. It is the one
// place the evaluators call a transcendental that depends on a lost
// set; cond is failure.Platform.ExpectedTime itself, so both
// evaluators reproduce property C bit for bit.
func (ss *schedState) fill(t int, x float64) {
	m := &ss.memo[t]
	rec := m.diag - x
	if rec < 0 {
		// T↓k_t ⊆ T↓t_t guarantees rec ≥ 0; tolerate rounding noise.
		if rec < -1e-9*(1+m.diag) {
			panic(fmt.Sprintf("core: negative recovery %v at position %d", rec, t))
		}
		rec = 0
	}
	wt := x + ss.w[t]
	m.key = math.Float64bits(x)
	m.bf = math.Exp(-ss.plat.Lambda * wt)
	m.cond = ss.plat.ExpectedTime(wt, m.ck, rec)
}
