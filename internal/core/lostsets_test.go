package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/failure"
	"repro/internal/rng"
)

// checkLostRows compares every row of ss's lost matrix, filled by the
// recurrence for schedule s, with the per-row DFS that seeds it
// (lostRow), bit for bit. With final set the recurrence ran through
// row n, and its placement must also equal the DFS placement of row n.
func checkLostRows(ss *schedState, s *Schedule, final bool) error {
	n := s.Graph.N()
	ref := NewEvaluator()
	ref.load(s)
	row := make([]float64, n+1)
	for k := 1; k <= n; k++ {
		ref.lostRow(k, n, row)
		for i := k; i <= n; i++ {
			if math.Float64bits(row[i]) != math.Float64bits(ss.lost[k][i]) {
				return fmt.Errorf("row %d entry %d: recurrence %v (%016x), DFS %v (%016x)",
					k, i, ss.lost[k][i], math.Float64bits(ss.lost[k][i]), row[i], math.Float64bits(row[i]))
			}
		}
	}
	for o := 1; final && o <= n; o++ {
		if ss.place[o] != ref.place[o] {
			return fmt.Errorf("row %d: position %d placed at %d, DFS places it at %d", n, o, ss.place[o], ref.place[o])
		}
	}
	return nil
}

// TestLostSetsQuick is the testing/quick leg of the recurrence's
// differential test: random layered DAGs and masks, cold evaluation,
// every row and entry against the per-row DFS; then a delta flip at
// a random position, checked the same way.
func TestLostSetsQuick(t *testing.T) {
	p := failure.Platform{Lambda: 1e-3}
	prop := func(seed uint64, density uint8, flip uint16) bool {
		r := rng.New(seed%100000 + 1)
		n := 3 + r.Intn(60)
		g := randomDAG(r, n)
		mask := make([]bool, n)
		for i := range mask {
			mask[i] = r.Intn(256) < int(density)
		}
		s := &Schedule{Graph: g, Order: identOrder(n), Ckpt: mask}
		if err := LostRowsMismatch(s, p); err != nil {
			t.Logf("n=%d cold: %v", n, err)
			return false
		}
		if err := DeltaLostRowsMismatch(s, p, 1+int(flip)%n); err != nil {
			t.Logf("n=%d flip %d: %v", n, 1+int(flip)%n, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
