// Command benchjson maintains BENCH_sweep.json, the repository's
// benchmark trajectory: a JSON list of labelled benchmark runs, each
// holding the parsed numbers and the raw `go test -bench` lines.
//
// Ingest a run (replacing any same-labelled entry):
//
//	go test -run '^$' -bench ... -benchtime 1x ./... | \
//	    benchjson -label 2026-07-29-delta -file BENCH_sweep.json
//
// Extract an entry back to the standard bench text format, e.g. to
// diff two points of the trajectory with benchstat:
//
//	benchjson -file BENCH_sweep.json -extract baseline-pre-delta > old.txt
//	benchjson -file BENCH_sweep.json -extract 2026-07-29-delta   > new.txt
//	benchstat old.txt new.txt
//
// Gate a fresh multi-sample run against a checked-in baseline entry
// (the repository's offline benchstat; see gate.go for the
// statistics):
//
//	go test -run '^$' -bench ... -count 6 ./... | \
//	    benchjson -file BENCH_sweep.json -gate gate-baseline \
//	    -threshold 0.10 -require BenchmarkDeltaFlip,BenchmarkPortfolioN100
//
// The exit status is 1 when any benchmark is slower than the baseline
// by more than -threshold with Mann–Whitney significance -alpha, or
// when a -require'd benchmark is missing from either side.
//
// The `make bench-json` target wires the ingest path and `make
// bench-gate` the gate; CI runs the gate as a blocking job and uploads
// the refreshed trajectory as a non-blocking artifact.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/prof"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	Raw         string  `json:"raw"`
}

// Entry is one labelled benchmark run. NumCPU, GOMAXPROCS and
// GoVersion are its machine record, filled at ingest: the host's
// logical CPU count, the GOMAXPROCS the benchmarks ran with (their
// name's -N suffix; go test omits it at 1) and the Go toolchain.
type Entry struct {
	Label      string      `json:"label"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	NumCPU     int         `json:"num_cpu,omitempty"`
	GOMAXPROCS int         `json:"gomaxprocs,omitempty"`
	GoVersion  string      `json:"go_version,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// File is the whole trajectory.
type File struct {
	Comment string  `json:"comment"`
	Entries []Entry `json:"entries"`
}

const defaultComment = "Benchmark trajectory; append entries via `make bench-json` " +
	"(BENCH_LABEL=... to name the point), extract benchstat-ready text via " +
	"`go run ./cmd/benchjson -file BENCH_sweep.json -extract <label>`."

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+([\d.]+) allocs/op)?`)

// procsSuffix is the -GOMAXPROCS suffix `go test` appends to benchmark
// names. It is stripped from the stored Name (the Raw line keeps it)
// so trajectory points recorded on machines with different core
// counts join on the same names.
var procsSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	var (
		file      = flag.String("file", "BENCH_sweep.json", "trajectory file to read/update")
		label     = flag.String("label", "", "ingest stdin as this labelled entry")
		extract   = flag.String("extract", "", "print the labelled entry as bench text")
		gateLabel = flag.String("gate", "", "compare stdin against this baseline entry; exit 1 on significant regression")
		threshold = flag.Float64("threshold", 0.10, "gate: relative ns/op slowdown tolerated before failing")
		alpha     = flag.Float64("alpha", 0.05, "gate: Mann–Whitney significance level a regression must reach")
		normalize = flag.Bool("normalize", false, "gate: divide per-benchmark ratios by their geometric mean (cancels uniform machine-speed shifts)")
		require   = flag.String("require", "", "gate: comma-separated benchmark names that must be present in both runs")
		profCfg   = prof.FlagVars()
	)
	flag.Parse()
	modes := 0
	for _, m := range []string{*label, *extract, *gateLabel} {
		if m != "" {
			modes++
		}
	}
	if modes != 1 {
		fmt.Fprintln(os.Stderr, "benchjson: exactly one of -label (ingest), -extract or -gate must be given")
		os.Exit(2)
	}
	stopProf, err := profCfg.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *gateLabel != "" {
		f, err := load(*file)
		if err == nil {
			var req []string
			for _, r := range strings.Split(*require, ",") {
				if r = strings.TrimSpace(r); r != "" {
					req = append(req, r)
				}
			}
			err = gate(f, *file, *gateLabel, os.Stdin, os.Stdout, *threshold, *alpha, *normalize, req)
		}
		if perr := stopProf(); err == nil {
			err = perr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	err = run(*file, *label, *extract, os.Stdin, os.Stdout)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(path, label, extract string, in io.Reader, out io.Writer) error {
	f, err := load(path)
	if err != nil {
		return err
	}
	if extract != "" {
		for _, e := range f.Entries {
			if e.Label == extract {
				if e.Goos != "" {
					fmt.Fprintf(out, "goos: %s\n", e.Goos)
				}
				if e.Goarch != "" {
					fmt.Fprintf(out, "goarch: %s\n", e.Goarch)
				}
				if e.CPU != "" {
					fmt.Fprintf(out, "cpu: %s\n", e.CPU)
				}
				for _, b := range e.Benchmarks {
					fmt.Fprintln(out, b.Raw)
				}
				return nil
			}
		}
		if len(f.Entries) == 0 {
			return fmt.Errorf("no entry labelled %q in %s (the file has no entries)", extract, path)
		}
		labels := make([]string, len(f.Entries))
		for i, e := range f.Entries {
			labels[i] = e.Label
		}
		return fmt.Errorf("no entry labelled %q in %s; available labels: %s",
			extract, path, strings.Join(labels, ", "))
	}
	entry, err := parse(label, in)
	if err != nil {
		return err
	}
	if len(entry.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}
	// The benchmarks ran on this host: ingest reads them from a pipe.
	entry.NumCPU, entry.GoVersion = runtime.NumCPU(), runtime.Version()
	replaced := false
	for i := range f.Entries {
		if f.Entries[i].Label == label {
			f.Entries[i] = entry
			replaced = true
			break
		}
	}
	if !replaced {
		f.Entries = append(f.Entries, entry)
	}
	return save(path, f)
}

func load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &File{Comment: defaultComment}, nil
	}
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if f.Comment == "" {
		f.Comment = defaultComment
	}
	return &f, nil
}

func save(path string, f *File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// parse reads `go test -bench` output into an entry.
func parse(label string, in io.Reader) (Entry, error) {
	e := Entry{Label: label}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			e.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			e.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			e.CPU = strings.TrimPrefix(line, "cpu: ")
		default:
			m := benchLine.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			iters, err := strconv.ParseInt(m[2], 10, 64)
			if err != nil {
				return e, fmt.Errorf("bad iteration count in %q", line)
			}
			ns, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				return e, fmt.Errorf("bad ns/op in %q", line)
			}
			if e.GOMAXPROCS == 0 {
				e.GOMAXPROCS = 1
				if suf := procsSuffix.FindString(m[1]); suf != "" {
					e.GOMAXPROCS, _ = strconv.Atoi(suf[1:])
				}
			}
			b := Benchmark{
				Name:       procsSuffix.ReplaceAllString(m[1], ""),
				Iterations: iters,
				NsPerOp:    ns,
				Raw:        strings.TrimSpace(line),
			}
			if m[4] != "" {
				b.BytesPerOp, _ = strconv.ParseFloat(m[4], 64)
			}
			if m[5] != "" {
				b.AllocsPerOp, _ = strconv.ParseFloat(m[5], 64)
			}
			e.Benchmarks = append(e.Benchmarks, b)
		}
	}
	return e, sc.Err()
}
