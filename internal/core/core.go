// Package core implements the paper's central contribution
// (Theorem 3): a polynomial-time algorithm computing the expected
// makespan of a schedule — a linearization of a workflow DAG plus a
// set of checkpointed tasks — on a platform with exponentially
// distributed failures.
//
// Two implementations are provided. EvalReference is a literal
// transcription of Algorithm 1 (FindWikRik) with the n×n tab_k array,
// costing O(n³) per failure position k and O(n⁴) overall.  Eval is an
// optimized, algebraically identical version that exploits the fact
// that, for a fixed k, every task enters the lost set T↓k_i of at
// most one i, its placement: a per-k placement vector replaces tab_k.
// Consecutive rows k and k+1 differ only where task k and the tasks
// placed on the diagonal (k, k) land, so each row is derived from the
// one before it by moving those tasks and re-summing the entries they
// land in; every other entry is copied. Running products turn the
// probability products of properties A and B into O(1) lookups. Eval
// costs O(n·(E + n log n)) per schedule in the worst case (the tasks
// that move are sorted in every row) and, on the pwg families, little
// more than the O(n²) row copies and the expectation pass, which is
// what makes the exhaustive checkpoint-count searches
// of the Section 5 heuristics tractable at the paper's largest
// instances (n = 700) and beyond.
package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/dag"
	"repro/internal/failure"
)

// Schedule is a complete answer to DAG-ChkptSched for a given
// workflow: Order is a linearization of the DAG (Order[p] is the ID
// of the task executed at position p) and Ckpt[id] tells whether the
// output of task id is checkpointed right after the task completes.
type Schedule struct {
	Graph *dag.Graph
	Order []int
	Ckpt  []bool
}

// NewSchedule validates and returns a schedule. The order must be a
// linearization of g and ckpt must have one entry per task.
func NewSchedule(g *dag.Graph, order []int, ckpt []bool) (*Schedule, error) {
	s := &Schedule{Graph: g, Order: order, Ckpt: ckpt}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Validate checks the structural sanity of the schedule.
func (s *Schedule) Validate() error {
	if s.Graph == nil {
		return fmt.Errorf("core: schedule has no graph")
	}
	if err := s.Graph.Validate(); err != nil {
		return err
	}
	if len(s.Ckpt) != s.Graph.N() {
		return fmt.Errorf("core: checkpoint mask has %d entries for %d tasks", len(s.Ckpt), s.Graph.N())
	}
	if !s.Graph.IsLinearization(s.Order) {
		return fmt.Errorf("core: order is not a linearization of the DAG")
	}
	return nil
}

// NumCheckpointed returns the number of checkpointed tasks.
func (s *Schedule) NumCheckpointed() int {
	n := 0
	for _, b := range s.Ckpt {
		if b {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of the schedule sharing the same graph.
func (s *Schedule) Clone() *Schedule {
	return &Schedule{
		Graph: s.Graph,
		Order: append([]int(nil), s.Order...),
		Ckpt:  append([]bool(nil), s.Ckpt...),
	}
}

// Eval computes the expected makespan of schedule s on platform p
// using a fresh evaluator. Prefer an Evaluator when evaluating many
// schedules of same-sized graphs (it reuses its buffers).
func Eval(s *Schedule, p failure.Platform) float64 {
	return NewEvaluator().Eval(s, p)
}

// Evaluator computes expected makespans, reusing internal buffers
// across calls. It is not safe for concurrent use.
//
// # Ownership rule
//
// An Evaluator is owned by exactly one goroutine at a time: every
// buffer is overwritten by each Eval call, so two goroutines sharing
// one evaluator silently corrupt each other's results (or trip the
// race detector). Parallel engines must give each worker its own
// evaluator — either one per goroutine for its lifetime (as
// internal/mc does via per-shard runners) or through a checked-out
// lease from a pool that hands any evaluator to at most one worker
// at a time (as internal/portfolio's evalPool enforces). Transferring
// an evaluator between goroutines is safe only across a
// happens-before edge (channel send, WaitGroup, pool mutex).
type Evaluator struct {
	schedState

	pz []float64 // pz[k] = P(Z^{k+1}_k)

	// Accumulator buffers reused across Eval calls (cleared per call).
	probSum, exSum []float64

	// delta, when non-nil, is the incremental companion evaluator
	// lazily created by Delta(). It has fully independent state; it
	// rides along here only so pooled engines (internal/portfolio)
	// that lease whole Evaluators get a delta evaluator under the same
	// lease, without any signature change.
	delta *DeltaEvaluator

	// table caches the (graph, platform) transcendental factors. It is
	// either installed by SetFactorTable (shared, read-only — the one
	// sanctioned piece of cross-evaluator state) or built lazily on the
	// first Eval of an instance and reused for every later load of the
	// same (graph, platform).
	table *FactorTable
}

// NewEvaluator returns an empty evaluator ready for use.
func NewEvaluator() *Evaluator { return &Evaluator{} }

// schedState is the position-space view of a loaded schedule: its
// lost-set matrix with the state of the pass that fills it, and the
// factors of the makespan pass. It is shared by the cold Evaluator and
// the incremental DeltaEvaluator so that both compute every lost-set
// row (lostSets) and every factor (colMemo) with the byte-for-byte
// identical procedure — the foundation of their bit-identity contract.
type schedState struct {
	// 1-based: index 0 unused so the code mirrors the paper's
	// T_1..T_n notation.
	w, c, r []float64
	ckpt    []bool

	lost [][]float64 // lost[k][i] = W^i_k + R^i_k (k, i in 1..n)

	// Predecessor and successor positions in CSR layout: the
	// predecessors of position i are predAdj[predOff[i]:predOff[i+1]],
	// its successors (ascending) succAdj[succOff[i]:succOff[i+1]]. The
	// flat layout keeps the lost-set passes on contiguous arrays
	// instead of chasing per-position slice headers.
	predOff, succOff []int32
	predAdj, succAdj []int32

	// State of the lost-set pass (see lostSets) for its current row k:
	// place[o] is the i at which position o < k is placed (0: never);
	// bucket i lists the positions placed at i, linked from head[i]
	// through next (0 ends a list).
	place, head, next []int32
	stk               []int32 // DFS stack
	mov               []int32 // advance's movers
	dirty             []int32 // entries of the current row a position landed in
	// Stamps drawn from one strictly increasing counter: st[j] marks the
	// positions entry has visited, mark[i] the entries of the current
	// row that advance made a position land in.
	st, mark []int
	stamp    int

	posBuf []int // task id -> position scratch, reused across loads

	// Factors of the makespan pass (see Evaluator.expectedMakespan):
	// fw[i] = e^{−λ w_i}, fc[i] = e^{−λ c_i}, gate[i] = δ_i ? fc[i] : 1;
	// memo[t] holds column t's lost-dependent factors (see colMemo).
	fw, fc, gate []float64
	memo         []colMemo
	plat         failure.Platform
}

// arenaF64 carves an r×w float64 matrix out of one flat allocation:
// consecutive rows are contiguous in memory, so the row-major passes
// of the evaluators walk the cache linearly, and resizing costs O(1)
// allocations instead of one per row.
func arenaF64(r, w int) [][]float64 {
	buf := make([]float64, r*w)
	rows := make([][]float64, r)
	for k := range rows {
		rows[k] = buf[k*w : (k+1)*w : (k+1)*w]
	}
	return rows
}

// resizeState prepares the shared buffers for an n-task schedule.
func (ss *schedState) resizeState(n int) {
	if cap(ss.w) < n+1 {
		ss.w = make([]float64, n+1)
		ss.c = make([]float64, n+1)
		ss.r = make([]float64, n+1)
		ss.ckpt = make([]bool, n+1)
		// The position-space int32 vectors share one allocation, the
		// stamp vectors another.
		pack := make([]int32, 8*(n+2))
		carve := func(l int) []int32 {
			v := pack[: l : n+2]
			pack = pack[n+2:]
			return v
		}
		ss.predOff = carve(n + 2)
		ss.succOff = carve(n + 2)
		ss.place = carve(n + 1)
		ss.head = carve(n + 1)
		ss.next = carve(n + 1)
		ss.stk = carve(0)
		ss.mov = carve(0)
		ss.dirty = carve(0)
		stamps := make([]int, 2*(n+1))
		ss.st, ss.mark = stamps[:n+1:n+1], stamps[n+1:]
		ss.fw = make([]float64, n+1)
		ss.fc = make([]float64, n+1)
		ss.gate = make([]float64, n+1)
		ss.memo = make([]colMemo, n+1)
		ss.lost = arenaF64(n+1, n+1)
	}
	ss.w = ss.w[:n+1]
	ss.c = ss.c[:n+1]
	ss.r = ss.r[:n+1]
	ss.ckpt = ss.ckpt[:n+1]
	ss.predOff = ss.predOff[:n+2]
	ss.succOff = ss.succOff[:n+2]
	ss.place = ss.place[:n+1]
	ss.head = ss.head[:n+1]
	ss.next = ss.next[:n+1]
	ss.st = ss.st[:n+1]
	ss.mark = ss.mark[:n+1]
	ss.fw = ss.fw[:n+1]
	ss.fc = ss.fc[:n+1]
	ss.gate = ss.gate[:n+1]
	ss.memo = ss.memo[:n+1]
	ss.lost = ss.lost[:n+1]
}

// loadSchedule converts the schedule into position space.
func (ss *schedState) loadSchedule(s *Schedule) {
	g := s.Graph
	n := g.N()
	ss.resizeState(n)
	if m := g.M(); cap(ss.predAdj) < m {
		adj := make([]int32, 2*m)
		ss.predAdj, ss.succAdj = adj[:0:m], adj[m:]
	}
	ss.predAdj = ss.predAdj[:0]
	ss.posBuf = g.PositionsInto(s.Order, ss.posBuf)
	pos := ss.posBuf
	ss.predOff[0], ss.predOff[1] = 0, 0 // position 0 unused
	for p, id := range s.Order {
		i := p + 1
		t := g.Task(id)
		ss.w[i] = t.Weight
		ss.c[i] = t.CkptCost
		ss.r[i] = t.RecCost
		ss.ckpt[i] = s.Ckpt[id]
		for _, q := range g.Preds(id) {
			ss.predAdj = append(ss.predAdj, int32(pos[q]+1))
		}
		ss.predOff[i+1] = int32(len(ss.predAdj))
	}
	// Transpose into the successor CSR: count, prefix-sum to the end of
	// each list, then fill backwards so every list ends up ascending and
	// succOff[j] at its start.
	off := ss.succOff
	clear(off)
	for _, j := range ss.predAdj {
		off[j]++
	}
	for x := 1; x <= n+1; x++ {
		off[x] += off[x-1]
	}
	ss.succAdj = ss.succAdj[:len(ss.predAdj)]
	for i := n; i >= 1; i-- {
		for _, j := range ss.predAdj[ss.predOff[i]:ss.predOff[i+1]] {
			off[j]--
			ss.succAdj[off[j]] = int32(i)
		}
	}
}

// lostRow runs Algorithm 1's traversal for row k on its own: it fills
// row[i] = W^i_k + R^i_k for i = k..n (unless row is nil) and leaves
// the row's placement in place and its buckets in head/next. It seeds
// lostSets, which derives every later row from this one, and is the
// reference the recurrence is tested against.
func (ss *schedState) lostRow(k, n int, row []float64) {
	place, head, next := ss.place, ss.head, ss.next
	clear(place)
	clear(head)
	for i := k; i <= n; i++ {
		sum := 0.0
		// DFS from the predecessors of i through the non-checkpointed
		// closure restricted to positions < k. The first level is
		// inlined; the stack only holds expansions.
		stk := ss.stk[:0]
		l := int32(i)
		for {
			for _, j := range ss.predAdj[ss.predOff[l]:ss.predOff[l+1]] {
				if int(j) >= k || place[j] != 0 {
					// Executed after the failure (its output is in
					// memory: Algorithm 1 marks tab 0 and does not
					// recurse), or already placed in some T↓k_l (l ≤ i)
					// and rebuilt at that point.
					continue
				}
				place[j] = int32(i)
				next[j], head[i] = head[i], j
				if ss.ckpt[j] {
					sum += ss.r[j]
				} else {
					sum += ss.w[j]
					stk = append(stk, j)
				}
			}
			if len(stk) == 0 {
				break
			}
			l = stk[len(stk)-1]
			stk = stk[:len(stk)-1]
		}
		if row != nil {
			row[i] = sum
		}
	}
}

// lostSets fills rows k0..n of the lost matrix, deriving each row from
// the one before it. Row k places position o < k at f_k(o), the
// smallest i ≥ k reachable from o through non-checkpointed positions
// < k (0: none). Going from row k to row k+1 only position k and the
// set S_k placed at the diagonal (k, k) can move (see advance); every
// other position keeps its placement, so an entry of row k+1 where no
// moving position lands holds the same positions as in row k, visited
// by lostRow's DFS in the same order: it is copied bit for bit. The
// entries where one lands are recomputed (see entry).
//
// With minChg nil (a load) row k0 is computed by lostRow and every
// row is written. Otherwise the stored rows are those of the mask
// before the checkpoint flags of the positions in flips (ascending,
// all ≥ k0) were flipped, so rows ≤ k0 are current: only row k0's
// placement is rebuilt, each later row is compared bit for bit with
// the stored one, changed entries are written, and minChg[k] receives
// row k's first changed entry i > k (n+1: none). The pass stops at
// the first row k past the last flip that places no flipped position:
// its DFS reads no flipped flag, so it and every later row are the
// stored ones (a position unplaced in row k stays unplaced in all
// later rows). minChg of the rows not reached is left as it was.
func (ss *schedState) lostSets(k0, n int, minChg []int, flips []int) {
	var row0 []float64
	if minChg == nil {
		row0 = ss.lost[k0]
	}
	ss.lostRow(k0, n, row0)
	mark := ss.mark
	for k := k0 + 1; k <= n; k++ {
		landed := ss.advance(k - 1)
		if minChg != nil && k > flips[len(flips)-1] && ss.unplaced(flips) {
			return
		}
		prev, row := ss.lost[k-1], ss.lost[k]
		if minChg == nil {
			copy(row[k:], prev[k:])
			for _, i := range ss.dirty {
				row[i] = ss.entry(i)
			}
			continue
		}
		// Bit-level change detection: the delta contract is bit-identity
		// with a cold evaluation, and `!=` on floats would miss a +0/−0
		// flip and re-dirty NaNs forever.
		first := n + 1
		for i := k; i <= n; i++ {
			v := prev[i]
			if mark[i] == landed {
				v = ss.entry(int32(i))
			}
			if math.Float64bits(v) != math.Float64bits(row[i]) {
				row[i] = v
				if i > k && first > n {
					first = i
				}
			}
		}
		minChg[k] = first
	}
}

// unplaced reports whether the current row places none of the given
// positions.
func (ss *schedState) unplaced(positions []int) bool {
	for _, j := range positions {
		if ss.place[j] != 0 {
			return false
		}
	}
	return true
}

// advance turns row k's placement into row k+1's. It lists in dirty,
// and stamps in mark, the entries of row k+1 that a position lands in,
// and returns the stamp. The movers are k and S_k (bucket k);
// f_{k+1}(o) is the minimum over o's successors s of s itself when
// s > k, or of f_{k+1}(s) when s ≤ k is not checkpointed. Successors
// lie above o, so processing the movers in descending position order
// finds every f_{k+1}(s) already final.
func (ss *schedState) advance(k int) int {
	place, head, next, mark := ss.place, ss.head, ss.next, ss.mark
	mov := ss.mov[:0]
	for o := head[k]; o != 0; o = next[o] {
		mov = append(mov, o)
	}
	head[k] = 0
	slices.Sort(mov)
	mov = append(mov, int32(k))
	ss.stamp++
	landed := ss.stamp
	dirty := ss.dirty[:0]
	for m := len(mov) - 1; m >= 0; m-- {
		o := mov[m]
		f := int32(0)
		// Successor lists are ascending: the first s > k is the
		// smallest terminal, and no later successor can beat it.
		for _, s := range ss.succAdj[ss.succOff[o]:ss.succOff[o+1]] {
			t := s
			if int(s) <= k {
				if ss.ckpt[s] || place[s] == 0 {
					continue
				}
				t = place[s]
			}
			if f == 0 || t < f {
				f = t
			}
			if int(s) > k {
				break
			}
		}
		place[o] = f
		if f != 0 {
			next[o], head[f] = head[f], o
			if mark[f] != landed {
				mark[f] = landed
				dirty = append(dirty, f)
			}
		}
	}
	ss.mov, ss.dirty = mov[:0], dirty
	return landed
}

// entry recomputes lost entry i of the current row: lostRow's DFS at i
// restricted to the positions placed at i, which it visits in the same
// order and therefore sums bit for bit alike.
func (ss *schedState) entry(i int32) float64 {
	place, st := ss.place, ss.st
	ss.stamp++
	stamp := ss.stamp
	sum := 0.0
	stk := ss.stk[:0]
	l := i
	for {
		for _, j := range ss.predAdj[ss.predOff[l]:ss.predOff[l+1]] {
			if place[j] != i || st[j] == stamp {
				continue
			}
			st[j] = stamp
			if ss.ckpt[j] {
				sum += ss.r[j]
			} else {
				sum += ss.w[j]
				stk = append(stk, j)
			}
		}
		if len(stk) == 0 {
			break
		}
		l = stk[len(stk)-1]
		stk = stk[:len(stk)-1]
	}
	return sum
}

// lostAbove returns lost[i−1][i], the lost entry of row i's last event
// k = i−1 (the empty lost set of the k = 0 event for i = 1).
func (ss *schedState) lostAbove(i int) float64 {
	if i < 2 {
		return 0
	}
	return ss.lost[i-1][i]
}

// resize prepares buffers for an n-task schedule.
func (e *Evaluator) resize(n int) {
	e.resizeState(n)
	if cap(e.pz) < n+1 {
		e.pz = make([]float64, n+1)
		e.probSum = make([]float64, n+1)
		e.exSum = make([]float64, n+1)
	}
	e.pz = e.pz[:n+1]
	e.probSum = e.probSum[:n+1]
	e.exSum = e.exSum[:n+1]
}

// load converts the schedule into position space.
func (e *Evaluator) load(s *Schedule) {
	e.resize(s.Graph.N())
	e.loadSchedule(s)
}

// Eval computes the expected makespan of s on platform p. It panics
// if the schedule is invalid (call Validate first for user input).
// For a failure-free platform (λ = 0) it returns Σ(w_i + δ_i c_i).
func (e *Evaluator) Eval(s *Schedule, p failure.Platform) float64 {
	g := s.Graph
	n := g.N()
	if n == 0 {
		return 0
	}
	if p.FailureFree() {
		total := 0.0
		for id := 0; id < n; id++ {
			total += g.Weight(id)
			if s.Ckpt[id] {
				total += g.CkptCost(id)
			}
		}
		return total
	}
	e.load(s)
	e.loadFactors(e.ensureTable(g, p))
	e.computeLostSets(n)
	return e.expectedMakespan(n)
}

// computeLostSets fills lost[k][i] = W^i_k + R^i_k for 1 ≤ k ≤ i ≤ n,
// the total rebuild cost of the tasks in T↓k_i (Definition 1): the
// predecessors of position i whose output was destroyed by a failure
// during X_k, is still needed by position i, and has not already been
// rebuilt for an intermediate position. Non-checkpointed members
// contribute their weight w_j (re-execution), checkpointed members
// their recovery cost r_j. Row 1 is empty (no task precedes X_1);
// lostSets derives every later row from the one before it.
func (e *Evaluator) computeLostSets(n int) {
	e.lostSets(1, n, nil, nil)
}

// expectedMakespan combines properties A, B and C of Theorem 3 into
// E[Σ X_i]. pz[k] caches P(Z^{k+1}_k).
//
// # Factorized probability products
//
// Property A needs P(Z^i_k) = pz[k] · e^{−λ Σ_{t=k+1..i−1} A_t(k)}
// with A_t(k) = lost[k][t] + w_t + δ_t c_t. Instead of accumulating
// the exponent and calling Exp once per (k, i) pair, the probability
// is maintained as a running product of per-term factors
//
//	P(k, i) = Π_{t=k+1..i−1} e^{−λ(lost[k][t]+w_t)} · gate[t]
//
// with gate[t] = e^{−λ c_t} if δ_t, else 1. This is algebraically
// identical (and no less accurate: the old exponent accumulated the
// same n rounding errors inside Exp's argument). Every remaining
// transcendental — the window factor above and the property-C
// expectation E[X_t | Z^t_k] — depends on one lost entry lost[k][t]
// plus constants of column t, and lost entries rarely change down a
// column. Both are therefore read from the column's memo (colMemo),
// which recomputes them only when the entry's bits differ from the
// last one seen in that column: a few transcendentals per run of equal
// values instead of three per pair. DeltaEvaluator runs the same memo
// and reproduces this loop bit for bit; any change to the order of
// operations here must be mirrored there (the differential fuzz tests
// and the golden bit corpus enforce this).
func (e *Evaluator) expectedMakespan(n int) float64 {
	total := 0.0
	exSum := e.exSum     // Σ_{k<i-1} P(Z^i_k)·E[X_i|Z^i_k]
	probSum := e.probSum // Σ_{k<i-1} P(Z^i_k)
	for i := 0; i <= n; i++ {
		exSum[i] = 0
		probSum[i] = 0
	}
	e.syncMemos(1, n, true)

	// k = 0 contributions: P(Z^i_0) = Π_{t<i} fw[t]·gate[t] (no
	// failure before X_i starts: every prefix segment succeeds), and
	// the lost sets of the k = 0 event are empty.
	p0 := 1.0
	for i := 1; i <= n; i++ {
		if i >= 2 { // for i = 1, k = 0 is the "last" k handled below
			pr := p0
			probSum[i] += pr
			_, cv := e.factors(i, 0)
			exSum[i] += pr * cv
		}
		p0 *= e.fw[i]
		p0 *= e.gate[i]
	}

	// k ≥ 1 contributions require pz[k] = P(Z^{k+1}_k), which is
	// produced when row i = k+1 is finalized. Process i in order,
	// finalizing rows; each finalized pz[k] is pushed into all later
	// rows i' ≥ k+2 with the running product P(k, i'). Contributions
	// enter every probSum[i']/exSum[i'] accumulator in increasing k
	// order — the invariant the incremental evaluator relies on to
	// reproduce these sums bit for bit. Total cost Σ_k (n−k) = O(n²).
	for i := 1; i <= n; i++ {
		// Finalize row i: the last event k = i−1 takes the remaining
		// probability mass (property B).
		last := 1 - probSum[i]
		if last < 0 {
			last = 0
		} else if last > 1 {
			last = 1
		}
		_, cv := e.factors(i, e.lostAbove(i))
		total += exSum[i] + last*cv
		e.pz[i-1] = last

		// With pz[i-1] now known, push the k = i−1 contributions into
		// all future rows i' ≥ i+1 ... but only k < i'−1 uses property
		// A; k = i'−1 is the subtraction case. So push into i' ≥ k+2.
		k := i - 1
		if k >= 1 && k+2 <= n && e.pz[k] > 0 {
			row := e.lost[k]
			P := 1.0
			bf, _ := e.factors(k+1, row[k+1])
			for ip := k + 2; ip <= n; ip++ {
				P *= bf
				P *= e.gate[ip-1]
				if P == 0 {
					// The product is monotonically non-increasing, so
					// every remaining contribution is exactly +0.0 —
					// skipping it leaves the accumulators bit-identical.
					break
				}
				pr := P * e.pz[k]
				probSum[ip] += pr
				// e.factors, inlined by hand (the call would not be).
				m := &e.memo[ip]
				if math.Float64bits(row[ip]) != m.key {
					e.fill(ip, row[ip])
				}
				exSum[ip] += pr * m.cond
				bf = m.bf
			}
		}
	}
	return total
}
