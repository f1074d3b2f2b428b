package core

import (
	"math"
	"testing"

	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/pwg"
	"repro/internal/rng"
	"repro/internal/stats"
)

// FuzzDeltaEvaluator is the native differential fuzz harness of the
// incremental evaluator: the fuzzer controls the DAG shape (via an
// rng seed), the failure regime and an arbitrary flip/rewrite script,
// and every step asserts that DeltaEvaluator's output is bit-identical
// to a cold Evaluator.Eval and agrees with the Algorithm-1 reference
// within tolerance. Besides flips and mask rewrites, the script can
// switch to a second linearization or another failure rate and revisit
// an earlier mask, so every reload must reset the per-column factor
// memo and no stale memo key may survive one. Position opcodes flip
// the first or last position or the one with the largest fan-out, or
// checkpoint every task or none: the edge cases of the lost-set
// recurrence, which derives each row from the one before it. With
// bit 8 of regime set the graph is a Montage workflow (c = 0.1·w,
// r = 0.05·w) instead of a random one. Run `go test -fuzz=FuzzDeltaEvaluator ./internal/core`
// to explore; the seed corpus below runs on every plain `go test`
// (including CI's -race pass).
func FuzzDeltaEvaluator(f *testing.F) {
	f.Add(uint64(1), uint64(3), []byte{0, 1, 2})
	f.Add(uint64(42), uint64(0), []byte{7, 7, 7, 7})
	f.Add(uint64(977), uint64(12), []byte{0xff, 0x80, 0x01, 0x40, 0x03})
	f.Add(uint64(31337), uint64(5), []byte{5, 250, 17, 99, 99, 0, 0, 128})
	f.Add(uint64(7), uint64(3), []byte{3, 0xe8, 3, 4, 0xe1, 5, 0xd9, 0xe8, 3, 0xdc, 9})
	f.Add(uint64(2024), uint64(4), []byte{1, 2, 0xe3, 0xe9, 1, 0xda, 0xe4, 0xf3, 0xdb, 6})
	f.Add(uint64(5), uint64(2), []byte{0xd0, 0xd1, 0xd0, 0xd1, 0xd1, 0xe8, 0xd0, 0xd1})
	f.Add(uint64(11), uint64(3), []byte{0xd2, 0xd0, 0xd1, 0xd3, 0xd2, 0xd3, 0xd1, 0xd0, 0xd2})
	f.Add(uint64(13), uint64(0x100|6), []byte{0xd4, 0xd4, 0xd2, 0xd4, 0xd3, 0xd4, 0xe8, 0xd4, 0xd1})
	f.Add(uint64(29), uint64(0x100), []byte{0xd3, 0xd4, 3, 0xd0, 0xd1, 0xd2, 0xd4, 0xd1})
	f.Fuzz(func(t *testing.T, seed, regime uint64, script []byte) {
		r := rng.New(seed%1_000_000 + 1)
		n := 2 + r.Intn(30)
		g := randomDAG(r, n)
		orders := [][]int{identOrder(n), maxReadyOrder(g)}
		if regime&0x100 != 0 {
			n = 13 + r.Intn(30)
			var err error
			if g, err = pwg.Generate(pwg.Montage, n, seed); err != nil {
				t.Fatal(err)
			}
			// pwg leaves c = r = 0; give checkpoints a cost so a task
			// summed into the wrong lost entry changes the result.
			g.ScaleCkptCosts(func(tk dag.Task) (float64, float64) {
				return 0.1 * tk.Weight, 0.05 * tk.Weight
			})
			topo, err := g.TopoSort()
			if err != nil {
				t.Fatal(err)
			}
			orders = [][]int{topo, maxReadyOrder(g)}
		}
		fanOut := 0 // task id with the most successors, the first on ties
		for id := 1; id < n; id++ {
			if len(g.Succs(id)) > len(g.Succs(fanOut)) {
				fanOut = id
			}
		}
		lin := 0
		lambdas := []float64{0, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1}
		p := failure.Platform{
			Lambda:   lambdas[regime%uint64(len(lambdas))],
			Downtime: float64(regime % 3),
		}
		mask := make([]bool, n)
		s := &Schedule{Graph: g, Order: orders[lin], Ckpt: mask}
		dv := NewDeltaEvaluator()
		cold := NewEvaluator()
		if len(script) > 48 {
			script = script[:48]
		}
		var history [][]bool // masks evaluated so far, oldest first
		for step, b := range append([]byte{0}, script...) {
			switch {
			case step > 0 && b >= 0xf8:
				// Rare opcode: rewrite the whole mask from the byte.
				for i := range mask {
					mask[i] = (int(b)+i)%3 == 0
				}
			case step > 0 && b >= 0xf0:
				// Rare opcode: batch-flip a handful of bits.
				for e := 0; e < int(b%8)+2; e++ {
					mask[(int(b)*7+e*13)%n] = !mask[(int(b)*7+e*13)%n]
				}
			case step > 0 && b >= 0xe8:
				// Rare opcode: switch linearization (a reload).
				lin = 1 - lin
				s.Order = orders[lin]
			case step > 0 && b >= 0xe0:
				// Rare opcode: switch failure rate (a reload, or the
				// λ = 0 short-circuit that leaves the state untouched).
				p.Lambda = lambdas[(int(b)+int(regime))%len(lambdas)]
			case step > 0 && b >= 0xd8:
				// Rare opcode: revisit the mask of up to 8 steps ago.
				back := int(b-0xd8) + 1
				if back > len(history) {
					back = len(history)
				}
				copy(mask, history[len(history)-back])
			case step > 0 && b >= 0xd0 && b <= 0xd1:
				// Rare opcode: flip the first or the last position.
				id := s.Order[0]
				if b == 0xd1 {
					id = s.Order[n-1]
				}
				mask[id] = !mask[id]
			case step > 0 && b >= 0xd2 && b <= 0xd3:
				// Rare opcode: checkpoint every task, or none.
				for i := range mask {
					mask[i] = b == 0xd2
				}
			case step > 0 && b == 0xd4:
				// Rare opcode: flip the task with the largest fan-out.
				mask[fanOut] = !mask[fanOut]
			case step > 0:
				mask[int(b)%n] = !mask[int(b)%n]
			}
			history = append(history, append([]bool(nil), mask...))
			got := dv.EvalSchedule(s, p)
			want := cold.Eval(s, p)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d: delta %v (%016x) != cold %v (%016x)",
					step, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if n <= 24 && !p.FailureFree() {
				// The O(n⁴) Algorithm-1 reference bounds fuzz cost; it
				// accumulates differently, so tolerance not bitwise.
				if ref := EvalReference(s, p); stats.RelDiff(got, ref) > 1e-9 {
					t.Fatalf("step %d: delta %v vs reference %v (rel %g)",
						step, got, ref, stats.RelDiff(got, ref))
				}
			}
		}
	})
}

// maxReadyOrder returns the linearization of g that always runs the
// highest-numbered ready task: for randomDAG's forward-edge graphs a
// second valid order besides the identity.
func maxReadyOrder(g *dag.Graph) []int {
	n := g.N()
	indeg := make([]int, n)
	for id := range indeg {
		indeg[id] = len(g.Preds(id))
	}
	order := make([]int, 0, n)
	for len(order) < n {
		next := -1
		for id := n - 1; id >= 0; id-- {
			if indeg[id] == 0 {
				next = id
				break
			}
		}
		indeg[next] = -1
		for _, v := range g.Succs(next) {
			indeg[v]--
		}
		order = append(order, next)
	}
	return order
}
