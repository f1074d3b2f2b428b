package core_test

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/pwg"
	"repro/internal/rng"
	"repro/internal/sched"
)

// evalBitsFile is the golden bit corpus: the exact Float64bits, in
// hex, of cold Evaluator.Eval on a few masks and of a DeltaEvaluator
// sweep, for the four pwg families under the DF, BF and RF
// linearizations. The delta tests elsewhere compare the cold and
// incremental evaluators with each other; this corpus pins both to
// values recorded before the evaluators were last restructured, so a
// rewrite that moves a bit in both at once still fails here.
const evalBitsFile = "testdata/evalbits"

// evalBitsLines recomputes the corpus: one "<family> <n> <lin> <kind>
// <hex>..." line per sequence of values.
func evalBitsLines(t testing.TB) []string {
	t.Helper()
	cases := []struct {
		fam      pwg.Workflow
		n        int
		lambda   float64
		downtime float64
	}{
		{pwg.Montage, 60, 1e-3, 0},
		{pwg.CyberShake, 120, 1e-3, 5},
		{pwg.Ligo, 200, 1e-4, 2},
		{pwg.Genome, 300, 1e-3, 10},
	}
	var lines []string
	var vals []string
	emit := func(v float64) { vals = append(vals, fmt.Sprintf("%016x", math.Float64bits(v))) }
	flush := func(prefix, kind string) {
		lines = append(lines, prefix+" "+kind+" "+strings.Join(vals, " "))
		vals = vals[:0]
	}
	for _, tc := range cases {
		g, err := pwg.Generate(tc.fam, tc.n, 7)
		if err != nil {
			t.Fatal(err)
		}
		g.ScaleCkptCosts(func(tk dag.Task) (float64, float64) { return 0.1 * tk.Weight, 0.05 * tk.Weight })
		p := failure.Platform{Lambda: tc.lambda, Downtime: tc.downtime}
		n := tc.n
		// Checkpoint ranking by decreasing weight (the CkptW order),
		// ties broken by id.
		rank := make([]int, n)
		for i := range rank {
			rank[i] = i
		}
		sort.SliceStable(rank, func(a, b int) bool { return g.Weight(rank[a]) > g.Weight(rank[b]) })
		for _, lin := range []sched.Linearizer{sched.DF{}, sched.BF{}, sched.RF{Seed: 3}} {
			prefix := fmt.Sprintf("%v %d %s", tc.fam, n, lin.Name())
			s := &core.Schedule{Graph: g, Order: lin.Linearize(g), Ckpt: make([]bool, n)}
			ev := core.NewEvaluator()
			r := rng.New(uint64(n))
			masks := []func(id int) bool{
				func(int) bool { return false },
				func(int) bool { return true },
				func(id int) bool { return id%2 == 0 },
				func(int) bool { return r.Float64() < 0.3 },
			}
			for _, m := range masks {
				for id := range s.Ckpt {
					s.Ckpt[id] = m(id)
				}
				emit(ev.Eval(s, p))
			}
			flush(prefix, "eval")

			// Delta sweep: up through every ranked prefix (single-bit
			// flips), two far jumps (a cold fallback, then a reload),
			// then back down in strides (multi-bit flips).
			dv := core.NewEvaluator().Delta()
			for id := range s.Ckpt {
				s.Ckpt[id] = false
			}
			for N := 0; N <= n; N++ {
				if N > 0 {
					s.Ckpt[rank[N-1]] = true
				}
				emit(dv.EvalSchedule(s, p))
			}
			flush(prefix, "up")
			for j := 0; j < 2; j++ {
				for id := range s.Ckpt {
					s.Ckpt[id] = (id+j)%3 != 0
				}
				emit(dv.EvalSchedule(s, p))
			}
			flush(prefix, "jump")
			for N := n; N >= 0; N -= 7 {
				for i, id := range rank {
					s.Ckpt[id] = i < N
				}
				emit(dv.EvalSchedule(s, p))
			}
			flush(prefix, "down")
		}
	}
	return lines
}

// TestEvalBitsGolden replays the golden corpus and demands every value
// bit for bit.
func TestEvalBitsGolden(t *testing.T) {
	data, err := os.ReadFile(evalBitsFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(data), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	got := evalBitsLines(t)
	if len(got) != len(want) {
		t.Fatalf("corpus has %d lines, evaluators produced %d", len(want), len(got))
	}
	bad, total := 0, 0
	for i := range want {
		g, w := strings.Fields(got[i]), strings.Fields(want[i])
		if len(g) != len(w) {
			t.Fatalf("line %d: %d fields, corpus has %d", i+1, len(g), len(w))
		}
		for j := range w {
			total++
			if g[j] != w[j] {
				if bad < 10 {
					t.Errorf("%s value %d: got %s, want %s", strings.Join(w[:4], " "), j-4, g[j], w[j])
				}
				bad++
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d fields differ from the golden corpus", bad, total)
	}
}
