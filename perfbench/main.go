// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks every output, and prints one JSON
// result line:
//
//	bash perfbench/run.sh --workload portfolio-large --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for why each was chosen):
//
//	portfolio-large  back-to-back portfolio.Run searches at n = 1000
//	serve-mix        a closed loop of nproc clients against wfserve
//	reactive-mc      rerun CompareMC passes on CyberShake n = 100
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the program instead replays the workload's calls layer by
// layer, records spans in memory, writes them to a span file at exit
// and reports the per-layer metrics. The engines are driven only
// through their exported functions; every span is recorded here,
// around the call into a layer.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the program's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// endToEnd lists the metrics of an untraced run; every workload
// reports all of them (README.md gives each one's meaning per
// workload).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"makespan_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of a traced run; every workload reports
// all of them, measured on its own inputs.
var perLayer = []struct{ name, unit string }{
	{"core.factor_table_ms", "ms"},
	{"core.eval_cold_us", "us"},
	{"core.eval_point_us", "us"},
	{"core.evals", "count"},
	{"core.evaluator_mb", "MB"},
	{"sched.linearize_ms", "ms"},
	{"sched.masker_us", "us"},
	{"sched.candidates", "count"},
	{"sched.stage2_evals", "count"},
	{"sched.pruned_ratio", "ratio"},
	{"portfolio.run_s.w1", "s"},
	{"portfolio.run_s.wmax", "s"},
	{"portfolio.scaling_eff", "ratio"},
	{"portfolio.alloc_mb_per_worker", "MB"},
	{"portfolio.unattributed_ratio", "ratio"},
	{"refine.evals", "count"},
	{"refine.eval_us", "us"},
	{"simulator.trial_us", "us"},
	{"mc.trials_per_s", "1/s"},
	{"rerun.static_s", "s"},
	{"rerun.plan_misses", "count"},
	{"rerun.plan_hit_ratio", "ratio"},
	{"rerun.residual_search_ms", "ms"},
	{"wfio.parse_json_us", "us"},
	{"wfio.parse_text_us", "us"},
	{"wfio.hash_us", "us"},
	{"serve.healthz_us", "us"},
	{"serve.store_get_us", "us"},
	{"serve.store_put_us", "us"},
	{"serve.overhead_ms", "ms"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p90_ms", "ms"},
	{"serve.collapsed_p50_ms", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.collapsed_ratio", "ratio"},
	{"serve.searches", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// Config is one benchmark invocation. Sizes live here so tests can
// shrink a workload without changing its code path.
type Config struct {
	Workload string
	Seed     uint64
	Duration time.Duration
	Trace    bool
	Workers  int    // engine workers and HTTP clients (nproc)
	OutDir   string // span file directory ("" writes none)

	LargeN    int // portfolio-large instance size
	LargeGrid int

	ServeMinN, ServeMaxN int // serve-mix workflow sizes
	ServeRefineN         int
	ServeGrid            int // grid of every request (0: exhaustive sweeps)
	ServeCollapseN       int // lower size bound of collapsed bodies
	ServeMC              int // mcTrials of mc-class requests
	ServeTraceItems      int // script items replayed by a traced run

	ReactiveN         int
	ReactiveInstances int // workflows a run rotates over
	ReactiveGrid      int
	ReactiveTrials    int // trials per CompareMC pass

	SetupReps int // set-ups per run; setup_s is their median

	ProbeN      int // size of the small refine / rerun / serve probes
	ProbeTrials int // Monte-Carlo trials of the probes
}

// DefaultConfig returns the benchmark's sizes.
func DefaultConfig() Config {
	return Config{
		Workers:           runtime.NumCPU(),
		LargeN:            1000,
		LargeGrid:         24,
		ServeMinN:         40,
		ServeMaxN:         300,
		ServeRefineN:      40,
		ServeGrid:         24,
		ServeCollapseN:    200,
		ServeMC:           2000,
		ServeTraceItems:   60,
		ReactiveN:         100,
		ReactiveGrid:      16,
		ReactiveTrials:    32,
		ReactiveInstances: 4,
		SetupReps:         11,
		ProbeN:            40,
		ProbeTrials:       2000,
	}
}

// Checker counts operations and failed correctness checks. An
// operation fails when any of its checks fails; failed / attempted is
// the run's failed ratio.
type Checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	log       io.Writer
}

// Op records one operation and the errors its checks returned.
func (c *Checker) Op(what string, errs ...error) {
	err := errors.Join(errs...)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		if c.log != nil && c.failed <= 20 {
			fmt.Fprintf(c.log, "perfbench: check failed: %s: %v\n", what, err)
		}
	}
}

// Counts returns (attempted, failed).
func (c *Checker) Counts() (int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed
}

// Run executes the configured workload and returns its result.
func Run(cfg Config, stderr io.Writer) (Result, error) {
	chk := &Checker{log: stderr}
	var tr *Tracer
	if cfg.Trace {
		tr = NewTracer()
	}
	var (
		m   map[string]float64
		err error
	)
	var rss *rssWindows
	if !cfg.Trace {
		rss = startRSSWindows(rssWindow)
	}
	switch cfg.Workload {
	case "portfolio-large":
		m, err = runPortfolioLarge(cfg, chk, tr)
	case "serve-mix":
		m, err = runServeMix(cfg, chk, tr)
	case "reactive-mc":
		m, err = runReactiveMC(cfg, chk, tr)
	default:
		return Result{}, fmt.Errorf("unknown workload %q (want portfolio-large, serve-mix or reactive-mc)", cfg.Workload)
	}
	if rss != nil {
		peak := rss.Stop()
		if err == nil {
			m["peak_rss_mb"] = peak
		}
	}
	if err != nil {
		return Result{}, err
	}
	want := endToEnd
	if cfg.Trace {
		want = perLayer
	}
	res := Result{Metrics: map[string]Metric{}}
	for _, w := range want {
		v, ok := m[w.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return Result{}, fmt.Errorf("metric %s not measured (%v)", w.name, v)
		}
		res.Metrics[w.name] = Metric{Value: v, Unit: w.unit}
	}
	res.Attempted, res.Failed = chk.Counts()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if cfg.Trace && cfg.OutDir != "" {
		path := filepath.Join(cfg.OutDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.Workload, cfg.Seed))
		spans := tr.Spans()
		if err := WriteSpans(path, Machine(cfg), spans); err != nil {
			return Result{}, err
		}
		fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", len(spans), path)
	}
	return res, nil
}

func main() {
	cfg := DefaultConfig()
	var seconds int
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "portfolio-large, serve-mix or reactive-mc")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 25, "measured time of an untraced run")
	flag.IntVar(&trace, "trace", 0, "1: traced per-layer run instead of the end-to-end run")
	flag.StringVar(&cfg.OutDir, "out", "", "directory for the span file of a traced run")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.Duration = time.Duration(seconds) * time.Second
	cfg.Trace = trace == 1
	if cfg.OutDir != "" {
		if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	mach, err := json.Marshal(map[string]any{"machine": Machine(cfg)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(mach))
	res, err := Run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ms, us and sec convert durations (or float nanoseconds) to reported units.
func ms(d time.Duration) float64  { return float64(d) / 1e6 }
func us(d time.Duration) float64  { return float64(d) / 1e3 }
func sec(d time.Duration) float64 { return d.Seconds() }

// rssWindow is the window an untraced run's peak RSS is taken over.
const rssWindow = time.Second

// rssWindows reads the process's peak resident set (VmHWM) at the end
// of each window and resets it (clear_refs 5), so peak_rss_mb is the
// median of the per-window peaks. A single run-wide peak is one
// extreme value that moved by a tenth between runs of one seed; the
// median over a run's windows still follows a change in the engines'
// memory. Where the peak cannot be reset, the windows' peaks are
// run-wide peaks.
type rssWindows struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
}

func startRSSWindows(window time.Duration) *rssWindows {
	w := &rssWindows{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(window)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				w.peaks = append(w.peaks, peakRSSMB())
				return
			case <-t.C:
				w.peaks = append(w.peaks, peakRSSMB())
				os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
			}
		}
	}()
	return w
}

// Stop ends the last window and returns the median of the windows'
// peaks in MB.
func (w *rssWindows) Stop() float64 {
	close(w.stop)
	<-w.done
	return median(w.peaks)
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
