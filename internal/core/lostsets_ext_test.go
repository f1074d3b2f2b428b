package core_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/pwg"
	"repro/internal/sched"
)

// TestLostSetsMatchRowDFS checks the lost-set recurrence against the
// per-row DFS, every row and entry bit for bit, on the four pwg
// families under the DF, BF and RF linearizations, with empty, full,
// every-third-task and ranked-prefix masks, in cold evaluation and
// after delta flips whose first flipped position is 1, n−1 or n.
func TestLostSetsMatchRowDFS(t *testing.T) {
	p := failure.Platform{Lambda: 1e-3, Downtime: 2}
	for _, fam := range []pwg.Workflow{pwg.Montage, pwg.CyberShake, pwg.Ligo, pwg.Genome} {
		g, err := pwg.Generate(fam, 90, 5)
		if err != nil {
			t.Fatal(err)
		}
		g.ScaleCkptCosts(func(tk dag.Task) (float64, float64) { return 0.1 * tk.Weight, 0.05 * tk.Weight })
		n := g.N()
		rank := make([]int, n)
		for i := range rank {
			rank[i] = i
		}
		sort.SliceStable(rank, func(a, b int) bool { return g.Weight(rank[a]) > g.Weight(rank[b]) })
		inPrefix := func(N int) func(int) bool {
			top := make([]bool, n)
			for _, id := range rank[:N] {
				top[id] = true
			}
			return func(id int) bool { return top[id] }
		}
		masks := []struct {
			name string
			on   func(id int) bool
		}{
			{"empty", func(int) bool { return false }},
			{"full", func(int) bool { return true }},
			{"third", func(id int) bool { return id%3 == 0 }},
			{"rank1", inPrefix(1)},
			{"rank1/3", inPrefix(n / 3)},
			{"rank2/3", inPrefix(2 * n / 3)},
			{"rankn-1", inPrefix(n - 1)},
		}
		for _, lin := range []sched.Linearizer{sched.DF{}, sched.BF{}, sched.RF{Seed: 3}} {
			order := lin.Linearize(g)
			for _, m := range masks {
				s := &core.Schedule{Graph: g, Order: order, Ckpt: make([]bool, n)}
				for id := range s.Ckpt {
					s.Ckpt[id] = m.on(id)
				}
				where := fmt.Sprintf("%v %s %s", fam, lin.Name(), m.name)
				if err := core.LostRowsMismatch(s, p); err != nil {
					t.Fatalf("%s cold: %v", where, err)
				}
				for _, flips := range [][]int{{1}, {n - 1}, {n}, {1, n / 2, n}} {
					if err := core.DeltaLostRowsMismatch(s, p, flips...); err != nil {
						t.Fatalf("%s flips at %v: %v", where, flips, err)
					}
				}
			}
		}
	}
}
