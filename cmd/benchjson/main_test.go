package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkPortfolioParallel/workers=1         	       1	6183181882 ns/op	15282032 B/op	   12684 allocs/op
BenchmarkEvaluator/n=700         	      20	  10049528 ns/op	  239281 B/op	      75 allocs/op
BenchmarkDeltaFlip/n=700-8         	    1276	   1659193.5 ns/op
PASS
ok  	repro	42.788s
`

func TestIngestExtractRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sweep.json")
	if err := run(path, "baseline", "", strings.NewReader(sampleBench), nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Entries) != 1 || len(f.Entries[0].Benchmarks) != 3 {
		t.Fatalf("parsed %+v", f)
	}
	b := f.Entries[0].Benchmarks[0]
	if b.Name != "BenchmarkPortfolioParallel/workers=1" || b.NsPerOp != 6183181882 || b.AllocsPerOp != 12684 {
		t.Fatalf("bad benchmark: %+v", b)
	}
	if f.Entries[0].CPU == "" || f.Entries[0].Goos != "linux" {
		t.Fatalf("header lost: %+v", f.Entries[0])
	}
	// The -GOMAXPROCS suffix is stripped from the stored name (but not
	// the raw line), so entries from machines with different core
	// counts join on the same names.
	if b := f.Entries[0].Benchmarks[2]; b.Name != "BenchmarkDeltaFlip/n=700" ||
		!strings.Contains(b.Raw, "n=700-8") {
		t.Fatalf("procs suffix not normalized: %+v", b)
	}

	// Extraction reproduces benchstat-consumable text.
	var out bytes.Buffer
	if err := run(path, "", "baseline", nil, &out); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"goos: linux", "BenchmarkEvaluator/n=700", "ns/op"} {
		if !strings.Contains(out.String(), frag) {
			t.Fatalf("extract missing %q:\n%s", frag, out.String())
		}
	}

	// Re-ingesting the same label replaces, not duplicates.
	if err := run(path, "baseline", "", strings.NewReader(sampleBench), nil); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(path)
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Entries) != 1 {
		t.Fatalf("duplicate entries after re-ingest: %d", len(f.Entries))
	}

	// A second label appends.
	if err := run(path, "delta", "", strings.NewReader(sampleBench), nil); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(path)
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Entries) != 2 || f.Entries[1].Label != "delta" {
		t.Fatalf("append failed: %+v", f.Entries)
	}
}

func TestIngestRejectsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.json")
	if err := run(path, "x", "", strings.NewReader("no benchmarks here\n"), nil); err == nil {
		t.Fatal("empty ingest accepted")
	}
}

// A missing -extract label must list what IS in the file, so the user
// does not have to open the JSON by hand to find the right label.
func TestExtractUnknownLabel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.json")
	if err := run(path, "base", "", strings.NewReader(sampleBench), nil); err != nil {
		t.Fatal(err)
	}
	if err := run(path, "delta", "", strings.NewReader(sampleBench), nil); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run(path, "", "nope", nil, &out)
	if err == nil {
		t.Fatal("unknown label accepted")
	}
	for _, frag := range []string{`"nope"`, "available labels", "base", "delta"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q does not mention %q", err, frag)
		}
	}

	// An empty trajectory says so instead of listing nothing.
	empty := filepath.Join(t.TempDir(), "missing.json")
	err = run(empty, "", "nope", nil, &out)
	if err == nil || !strings.Contains(err.Error(), "no entries") {
		t.Fatalf("empty-file extract error = %v, want a no-entries explanation", err)
	}
}

// TestIngestMachineRecord pins the machine record stored with an
// ingested entry: GOMAXPROCS from the benchmark names' suffix, the
// host's CPU count and the Go toolchain.
func TestIngestMachineRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sweep.json")
	in := "cpu: Intel(R) Xeon(R) Processor\n" +
		"BenchmarkDeltaFlip/n=700-2   \t     200\t   1987462 ns/op\t       0 B/op\t       0 allocs/op\n"
	if err := run(path, "point", "", strings.NewReader(in), nil); err != nil {
		t.Fatal(err)
	}
	f, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	e := f.Entries[0]
	if e.GOMAXPROCS != 2 || e.NumCPU < 1 || !strings.HasPrefix(e.GoVersion, "go") {
		t.Fatalf("machine record: gomaxprocs %d, num_cpu %d, go %q", e.GOMAXPROCS, e.NumCPU, e.GoVersion)
	}
	single, err := parse("one", strings.NewReader("BenchmarkX   \t 1\t 5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if single.GOMAXPROCS != 1 {
		t.Fatalf("unsuffixed names: gomaxprocs %d, want 1", single.GOMAXPROCS)
	}
}
