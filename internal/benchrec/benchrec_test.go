package benchrec

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/defender-game/defender/internal/obs"
)

// sampleReport builds a fully populated record like a -bench-out run's.
func sampleReport() *Report {
	r := obs.NewRegistry()
	r.SetEnabled(true)
	r.Counter("experiments.cells.ok").Add(42)
	r.Gauge("experiments.workers.effective").Set(4)
	r.Histogram("experiments.cell_seconds").Observe(0.002)
	return &Report{
		SchemaVersion:    SchemaVersion,
		Suite:            "experiments",
		Quick:            true,
		Seed:             1,
		GitSHA:           "0123456789abcdef0123456789abcdef01234567",
		Timestamp:        time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC),
		Hostname:         "bench-host",
		GOOS:             "linux",
		GOARCH:           "amd64",
		WorkersRequested: 0,
		WorkersEffective: 4,
		GoMaxProcs:       4,
		BenchRepeat:      3,
		TotalWallMS:      123.456,
		Tables: []Table{
			{ID: "E1", Rows: 39, Cells: 39, CellTiming: true, Samples: 3,
				WallMS: 0.6, CellsPerSec: 65000, CellP50MS: 0.001, CellP95MS: 0.04, CellP99MS: 0.05, CellMaxMS: 0.09},
			{ID: "E3", Rows: 18, Cells: 0, CellTiming: false, Samples: 3, WallMS: 7.6},
		},
		Metrics: r.Snapshot(),
	}
}

func TestSaveLoadRoundTripsByteIdentically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	orig := sampleReport()
	if err := orig.Save(path); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	second, err := loaded.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("load/save round trip is not byte-identical:\n--- saved ---\n%s\n--- resaved ---\n%s", first, second)
	}
	if !bytes.HasSuffix(first, []byte("\n")) {
		t.Error("canonical form must end in a newline")
	}
}

func TestLoadRejectsMalformedAndWrongSchema(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name, body, wantErr string
	}{
		{"garbage.json", "not json at all", "not a bench record"},
		{"trailing.json", `{"schema_version":2,"suite":"experiments"} {"again":true}`, "trailing data"},
		{"unknown-field.json", `{"schema_version":2,"suite":"experiments","surprise":1}`, "not a bench record"},
		{"pre-schema.json", `{"suite":"experiments","tables":[]}`, "no schema_version"},
		{"future.json", `{"schema_version":99,"suite":"experiments"}`, "schema_version 99"},
		{"no-suite.json", `{"schema_version":2}`, "empty suite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(write(tc.name, tc.body))
			if err == nil {
				t.Fatalf("Load(%s) accepted invalid input", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
	if _, err := Load(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("Load of a missing file must fail")
	}
}

func TestStampEnvironment(t *testing.T) {
	var r Report
	before := time.Now().UTC().Add(-time.Second)
	r.StampEnvironment("")
	if r.SchemaVersion != SchemaVersion {
		t.Errorf("schema_version = %d, want %d", r.SchemaVersion, SchemaVersion)
	}
	if r.GOOS != runtime.GOOS || r.GOARCH != runtime.GOARCH {
		t.Errorf("goos/goarch = %s/%s", r.GOOS, r.GOARCH)
	}
	if r.Timestamp.Before(before) || r.Timestamp.Location() != time.UTC {
		t.Errorf("timestamp %v not a fresh UTC time", r.Timestamp)
	}
	if r.Timestamp.Nanosecond() != 0 {
		t.Error("timestamp must be truncated to seconds for a stable canonical form")
	}
	// This test runs inside the repository, so the best-effort SHA resolves.
	if len(r.GitSHA) != 40 {
		t.Errorf("git_sha = %q, want a 40-char commit inside the repo", r.GitSHA)
	}
}

func TestGitSHAOutsideRepo(t *testing.T) {
	if sha := gitSHA(t.TempDir()); sha != "" {
		t.Errorf("GitSHA outside a checkout = %q, want empty", sha)
	}
}

func TestAggregateRobustStatistics(t *testing.T) {
	samples := []Table{
		{ID: "E2", Rows: 26, Cells: 6, CellTiming: true, WallMS: 12, CellsPerSec: 500, CellP50MS: 1.6, CellP95MS: 3.5, CellP99MS: 3.9, CellMaxMS: 4.0},
		{ID: "E2", Rows: 26, Cells: 6, CellTiming: true, WallMS: 10, CellsPerSec: 600, CellP50MS: 1.5, CellP95MS: 3.0, CellP99MS: 3.5, CellMaxMS: 3.6},
		// A pass hit by background load: must not drag the aggregate.
		{ID: "E2", Rows: 26, Cells: 6, CellTiming: true, WallMS: 90, CellsPerSec: 66, CellP50MS: 9.9, CellP95MS: 30, CellP99MS: 31, CellMaxMS: 32},
	}
	agg := Aggregate(samples)
	if agg.ID != "E2" || agg.Rows != 26 || agg.Cells != 6 || !agg.CellTiming {
		t.Errorf("identity fields wrong: %+v", agg)
	}
	if agg.Samples != 3 {
		t.Errorf("samples = %d, want 3", agg.Samples)
	}
	if agg.WallMS != 10 {
		t.Errorf("wall = %v, want the minimum 10", agg.WallMS)
	}
	if want := 6 / (10.0 / 1e3); agg.CellsPerSec != want {
		t.Errorf("cells_per_sec = %v, want %v (cells over min wall)", agg.CellsPerSec, want)
	}
	if agg.CellP50MS != 1.6 || agg.CellP95MS != 3.5 || agg.CellP99MS != 3.9 || agg.CellMaxMS != 4.0 {
		t.Errorf("percentiles not the per-statistic medians: %+v", agg)
	}
}

func TestAggregateZeroCellTable(t *testing.T) {
	samples := []Table{
		{ID: "E3", Rows: 18, WallMS: 8},
		{ID: "E3", Rows: 18, WallMS: 7},
	}
	agg := Aggregate(samples)
	if agg.WallMS != 7 || agg.CellsPerSec != 0 || agg.CellTiming {
		t.Errorf("zero-cell aggregate must keep throughput zero: %+v", agg)
	}
}

func TestAggregateSingleSample(t *testing.T) {
	agg := Aggregate([]Table{{ID: "E1", Cells: 3, CellTiming: true, WallMS: 5, CellsPerSec: 600}})
	if agg.Samples != 1 || agg.WallMS != 5 || agg.CellsPerSec != 600 {
		t.Errorf("single-sample aggregate must pass through: %+v", agg)
	}
}
