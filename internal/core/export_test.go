package core

import (
	"fmt"
	"math"

	"repro/internal/failure"
)

// LostRowsMismatch evaluates s cold and compares every lost-set row
// the recurrence (lostSets) wrote with lostRow's per-row DFS, bit for
// bit. It returns the first difference, or nil.
func LostRowsMismatch(s *Schedule, p failure.Platform) error {
	e := NewEvaluator()
	e.Eval(s, p)
	return checkLostRows(&e.schedState, s, true)
}

// DeltaLostRowsMismatch loads s into a DeltaEvaluator, flips the
// checkpoint flags of the given 1-based positions and checks the
// incremental result: the value bit for bit against a cold Eval, and
// every stored lost-set row against lostRow's per-row DFS. The flips
// are undone before it returns. Fewer than n/2 positions must be
// given, or the evaluator falls back to a cold evaluation instead.
func DeltaLostRowsMismatch(s *Schedule, p failure.Platform, positions ...int) error {
	d := NewDeltaEvaluator()
	d.EvalSchedule(s, p)
	for _, q := range positions {
		s.Ckpt[s.Order[q-1]] = !s.Ckpt[s.Order[q-1]]
	}
	defer func() {
		for _, q := range positions {
			s.Ckpt[s.Order[q-1]] = !s.Ckpt[s.Order[q-1]]
		}
	}()
	got, want := d.EvalSchedule(s, p), NewEvaluator().Eval(s, p)
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("delta %v != cold %v", got, want)
	}
	if 2*len(positions) >= len(s.Order) {
		return fmt.Errorf("%d flips of %d positions take the cold fallback, not the delta path", len(positions), len(s.Order))
	}
	return checkLostRows(&d.schedState, s, false)
}
