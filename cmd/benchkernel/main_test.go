package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/defender-game/defender/internal/benchrec"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: github.com/defender-game/defender/internal/rat
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkAddSmall-8    	13690731	        87.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkAddSmall-8    	13738582	        85.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkAddSmall-8    	13759988	        86.1 ns/op	       0 B/op	       0 allocs/op
BenchmarkAddBigRat-8   	 3848610	       318.3 ns/op	     128 B/op	       6 allocs/op
BenchmarkAddBigRat-8   	 3852331	       321.0 ns/op	     128 B/op	       6 allocs/op
BenchmarkAddBigRat-8   	 3901192	       316.9 ns/op	     128 B/op	       6 allocs/op
PASS
ok  	github.com/defender-game/defender/internal/rat	6.844s
pkg: github.com/defender-game/defender/internal/lp
BenchmarkSimplexPivotDense 	      92	  12937041 ns/op
BenchmarkSimplexPivotDense 	      93	  12857230 ns/op
BenchmarkSimplexPivotDense 	      90	  12990110 ns/op
PASS
ok  	github.com/defender-game/defender/internal/lp	4.210s
`

func TestParseBenchAggregates(t *testing.T) {
	rep, _, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Suite != "kernel-bench" {
		t.Errorf("suite = %q", rep.Suite)
	}
	if len(rep.Tables) != 3 {
		t.Fatalf("tables = %d, want 3", len(rep.Tables))
	}
	// First-seen order is preserved and IDs are package-qualified.
	wantIDs := []string{"rat/AddSmall", "rat/AddBigRat", "lp/SimplexPivotDense"}
	for i, want := range wantIDs {
		if rep.Tables[i].ID != want {
			t.Errorf("table %d id = %q, want %q", i, rep.Tables[i].ID, want)
		}
	}
	add := rep.Tables[0]
	if add.Samples != 3 {
		t.Errorf("samples = %d, want 3", add.Samples)
	}
	if got, want := add.WallMS, 85.0/1e6; got != want {
		t.Errorf("wall_ms = %g, want min sample %g", got, want)
	}
	if !add.CellTiming || add.Cells != 1 {
		t.Errorf("cells = %d cell_timing = %v", add.Cells, add.CellTiming)
	}
	if got, want := add.CellsPerSec, 1e9/85.0; got != want {
		t.Errorf("cells_per_sec = %g, want %g", got, want)
	}
	if rep.BenchRepeat != 3 {
		t.Errorf("bench_repeat = %d, want 3", rep.BenchRepeat)
	}
	pivot := rep.Tables[2]
	if got, want := pivot.WallMS, 12857230.0/1e6; got != want {
		t.Errorf("pivot wall_ms = %g, want %g", got, want)
	}
	// The -8 name suffix is GOMAXPROCS during the run; the record must
	// carry it instead of claiming a single-worker run.
	if rep.WorkersRequested != 8 || rep.WorkersEffective != 8 {
		t.Errorf("workers = %d/%d, want 8/8 from the -8 bench suffix",
			rep.WorkersRequested, rep.WorkersEffective)
	}
}

func TestParseBenchWithoutProcsSuffix(t *testing.T) {
	rep, _, err := parseBench(strings.NewReader(
		"BenchmarkBare \t 100 \t 50.0 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 1 || rep.WorkersEffective != 1 {
		t.Fatalf("tables = %d workers = %d, want 1 table, workers 1",
			len(rep.Tables), rep.WorkersEffective)
	}
}

func TestRealMainWritesLoadableRecord(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "kernel.json")
	hist := filepath.Join(dir, "history")
	var stdout, stderr strings.Builder
	code := realMain([]string{"-out", out, "-history", hist},
		strings.NewReader(sampleOutput), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	rep, err := benchrec.Load(out)
	if err != nil {
		t.Fatalf("record does not round-trip through benchrec: %v", err)
	}
	if rep.SchemaVersion != benchrec.SchemaVersion {
		t.Errorf("schema_version = %d", rep.SchemaVersion)
	}
	if rep.Timestamp.IsZero() {
		t.Error("timestamp not stamped")
	}
	entries, err := os.ReadDir(hist)
	if err != nil || len(entries) != 1 {
		t.Fatalf("history entries = %v, err = %v", entries, err)
	}
	if _, err := benchrec.Load(filepath.Join(hist, entries[0].Name())); err != nil {
		t.Errorf("history record invalid: %v", err)
	}
}

func TestRealMainRejectsEmptyInput(t *testing.T) {
	var stdout, stderr strings.Builder
	code := realMain(nil, strings.NewReader("no benchmarks here\n"), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
}

func TestRealMainRejectsPositionalArgs(t *testing.T) {
	var stdout, stderr strings.Builder
	code := realMain([]string{"extra.json"}, strings.NewReader(""), &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}
