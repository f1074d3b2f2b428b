package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/portfolio"
	"repro/internal/pwg"
	"repro/internal/sched"
)

// tinyConfig shrinks every workload to a fraction of a second.
func tinyConfig(workload string, trace bool) Config {
	cfg := DefaultConfig()
	cfg.Workload, cfg.Seed, cfg.Trace = workload, 3, trace
	cfg.Duration = 300 * time.Millisecond
	cfg.Workers = min(2, runtime.NumCPU())
	cfg.LargeN, cfg.LargeGrid = 60, 8
	cfg.ServeMinN, cfg.ServeMaxN, cfg.ServeRefineN, cfg.ServeCollapseN = 20, 160, 20, 150
	cfg.ServeMC, cfg.ServeTraceItems = 400, 30
	cfg.ReactiveN, cfg.ReactiveGrid, cfg.ReactiveTrials, cfg.ReactiveInstances = 30, 8, 16, 2
	cfg.SetupReps, cfg.ProbeN, cfg.ProbeTrials = 2, 20, 400
	return cfg
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares for untraced (end_to_end) or traced (per_layer) runs.
func benchmarkMetrics(t *testing.T, traced bool) map[string]string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	out := map[string]string{}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}

func TestSmokeEveryWorkloadEmitsItsMetrics(t *testing.T) {
	for _, w := range []string{"portfolio-large", "serve-mix", "reactive-mc"} {
		for _, traced := range []bool{false, true} {
			name := w
			if traced {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				cfg := tinyConfig(w, traced)
				cfg.OutDir = t.TempDir()
				res, err := Run(cfg, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				want := benchmarkMetrics(t, traced)
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case m.Unit != unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", name, m.Value)
					}
				}
				if traced {
					entries, err := os.ReadDir(cfg.OutDir)
					if err != nil || len(entries) != 1 || !strings.HasPrefix(entries[0].Name(), "spans-"+w) {
						t.Errorf("span file not written: %v %v", entries, err)
					}
				}
			})
		}
	}
}

func TestEndToEndMetricsAreNeverZero(t *testing.T) {
	for _, w := range []string{"portfolio-large", "serve-mix", "reactive-mc"} {
		res, err := Run(tinyConfig(w, false), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		for name, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", w, name, m.Value)
			}
		}
	}
}

func TestTamperedWinnerBitIsCounted(t *testing.T) {
	inst, err := NewInstance(pwg.Ligo, 40, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := portfolio.Run(sched.Paper14(sched.Options{Grid: 8}), inst.G, inst.Plat, portfolio.Options{Workers: 2})
	chk := &Checker{}
	chk.Op("untouched", CheckResults(inst, res))
	res[3].Expected = math.Float64frombits(math.Float64bits(res[3].Expected) ^ 1)
	chk.Op("tampered", CheckResults(inst, res))
	if a, f := chk.Counts(); a != 2 || f != 1 {
		t.Fatalf("attempted=%d failed=%d, want 2 and 1", a, f)
	}
	// The replay self-check catches the same flip.
	rep, _ := replay(nil, -1, sched.Paper14(sched.Options{Grid: 8}), inst)
	if err := sameWinners(rep, res); err == nil {
		t.Fatal("replay check accepted a tampered winner")
	}
	res[3].Expected = math.Float64frombits(math.Float64bits(res[3].Expected) ^ 1)
	if err := sameWinners(rep, res); err != nil {
		t.Fatalf("replay differs from portfolio.Run: %v", err)
	}
}

func TestTamperedResponseIsCounted(t *testing.T) {
	cfg := tinyConfig("serve-mix", false)
	sc := NewScript(cfg, true)
	if err := sc.Prefix(24); err != nil {
		t.Fatal(err)
	}
	svc, err := StartService(cfg.Workers)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Stop()
	chk := &Checker{}
	Drive(svc, sc, 24, cfg.Workers, time.Now().Add(time.Minute), nil, chk)
	if _, f := chk.Counts(); f != 0 {
		t.Fatalf("%d failures on untouched answers", f)
	}
	var hit Item
	for _, it := range sc.Items[:24] {
		if it.Class == ClassHit {
			hit = it
			break
		}
	}
	if hit.Body == nil {
		t.Fatal("script has no hit")
	}
	good := hit.Body.first
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 1
	chk = &Checker{}
	chk.Op("untouched", sc.Check(hit, 200, "hit", good))
	chk.Op("tampered byte", sc.Check(hit, 200, "hit", bad))
	chk.Op("tampered header", sc.Check(hit, 200, "miss", good))
	if a, f := chk.Counts(); a != 3 || f != 2 {
		t.Errorf("attempted=%d failed=%d, want 3 and 2", a, f)
	}
}

func TestCollapsedPairMayAnswerHit(t *testing.T) {
	for _, tc := range []struct {
		caches []string
		ok     bool
	}{
		{[]string{"miss"}, true},
		{[]string{"collapsed"}, true},
		{[]string{"miss", "collapsed"}, true},
		{[]string{"collapsed", "miss"}, true},
		{[]string{"miss", "hit"}, true},
		{[]string{"hit", "miss"}, true},
		{[]string{"miss", "miss"}, false},
		{[]string{"hit", "collapsed"}, false},
		{[]string{"miss", ""}, false},
	} {
		if err := checkPair(tc.caches); (err == nil) != tc.ok {
			t.Errorf("checkPair(%v) = %v, want ok=%v", tc.caches, err, tc.ok)
		}
	}
}

// TestScriptReleasesBodies checks that an untraced script keeps only
// the recent bodies' bytes once their items are answered.
func TestScriptReleasesBodies(t *testing.T) {
	cfg := tinyConfig("serve-mix", false)
	sc := NewScript(cfg, false)
	if err := sc.Prefix(200); err != nil {
		t.Fatal(err)
	}
	for i, it := range sc.Items {
		o := Outcome{Index: i, Item: it}
		sc.record(&o, 0, "", nil, errors.New("not sent"))
	}
	held := 0
	for _, b := range sc.Bodies {
		if b.Data != nil {
			held++
		}
	}
	if held == 0 || held > recentBodies {
		t.Errorf("%d of %d bodies hold their bytes, want 1..%d", held, len(sc.Bodies), recentBodies)
	}
}

func TestSelfTimesSubtractChildrenOnce(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60}, // overlaps 1
		{ID: 3, Parent: 2, Start: 35, End: 45},
	}
	got := SelfTimes(spans)
	want := []time.Duration{50, 30, 20, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self = %d, want %d", i, got[i], want[i])
		}
	}
}
