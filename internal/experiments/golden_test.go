package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update regenerates the committed golden tables:
//
//	go test ./internal/experiments -run TestGoldenTables -update
var update = flag.Bool("update", false, "rewrite the golden tables under testdata/golden")

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".golden")
}

// TestGoldenTables pins the canonical rendering of every Quick-mode table:
// any change to workloads, formatting, or computed values shows up as a
// golden diff that must be reviewed (and regenerated with -update).
// Canonical renderings mask the volatile timing cells, so the files are
// machine-independent.
func TestGoldenTables(t *testing.T) {
	cfg := Config{Quick: true, Seed: 1, Workers: 1}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			table, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			got := table.CanonicalRender()
			path := goldenPath(e.ID)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s canonical rendering drifted from %s\n--- got ---\n%s--- want ---\n%s",
					e.ID, path, got, want)
			}
		})
	}
}

// TestParallelMatchesSequential is the determinism guarantee of the cell
// runner: for every experiment, a workers=8 run renders byte-identically
// to a workers=1 run (volatile timing cells masked).
func TestParallelMatchesSequential(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			seqTable, err := e.Run(Config{Quick: true, Seed: 1, Workers: 1})
			if err != nil {
				t.Fatalf("%s sequential: %v", e.ID, err)
			}
			parTable, err := e.Run(Config{Quick: true, Seed: 1, Workers: 8})
			if err != nil {
				t.Fatalf("%s parallel: %v", e.ID, err)
			}
			seq, par := seqTable.CanonicalRender(), parTable.CanonicalRender()
			if seq != par {
				t.Errorf("%s: workers=8 output differs from workers=1\n--- workers=1 ---\n%s--- workers=8 ---\n%s",
					e.ID, seq, par)
			}
		})
	}
}

// TestCanonicalRenderMasksVolatileCells checks the masking itself: volatile
// columns render as "~" in canonical form but verbatim in Render.
func TestCanonicalRenderMasksVolatileCells(t *testing.T) {
	table := Table{
		ID:       "EX",
		Title:    "volatile demo",
		Claim:    "c",
		Headers:  []string{"a", "time", "check"},
		Volatile: []int{1},
	}
	table.AddRow("1", "123µs", "ok")
	plain, canon := table.Render(), table.CanonicalRender()
	if !contains(plain, "123µs") {
		t.Errorf("Render must keep timing cells:\n%s", plain)
	}
	if contains(canon, "123µs") || !contains(canon, "~") {
		t.Errorf("CanonicalRender must mask timing cells:\n%s", canon)
	}
	// Same Volatile set, different timing values → identical canonical form.
	other := table
	other.Rows = [][]string{{"1", "999ms", "ok"}}
	if other.CanonicalRender() != canon {
		t.Error("canonical renderings with different timings must be identical")
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// TestGoldenFilesExistForAllExperiments keeps the golden directory in sync
// with the registry: a new experiment without a committed golden file (or a
// stale file for a removed one) fails here rather than silently skipping.
func TestGoldenFilesExistForAllExperiments(t *testing.T) {
	if *update {
		t.Skip("regenerating")
	}
	want := make(map[string]bool)
	for _, e := range All() {
		want[e.ID+".golden"] = true
		if _, err := os.Stat(goldenPath(e.ID)); err != nil {
			t.Errorf("no golden file for %s: %v", e.ID, err)
		}
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range entries {
		if !want[entry.Name()] {
			t.Errorf("stale golden file %s has no registered experiment", entry.Name())
		}
	}
	if len(entries) != len(want) {
		t.Errorf("%d golden files for %d experiments", len(entries), len(want))
	}
}

// TestRenderedAndCanonicalWidthsAgree guards a subtle regression: masking
// must happen before column widths are computed, so canonical output is
// stable even when real timing strings are wider than the mask.
func TestRenderedAndCanonicalWidthsAgree(t *testing.T) {
	table := Table{
		Headers:  []string{"x", "t"},
		Volatile: []int{1},
	}
	table.AddRow("a", "1.234567s")
	canon := table.CanonicalRender()
	if contains(canon, "~        ") {
		t.Errorf("mask padded to the unmasked width — widths leak volatility:\n%s", canon)
	}
}

func init() {
	// Tests compare against committed goldens, which were generated with
	// seed 1; make that explicit if DefaultConfig ever changes.
	if DefaultConfig().Seed != 1 {
		panic(fmt.Sprintf("golden tables assume seed 1, DefaultConfig has %d", DefaultConfig().Seed))
	}
}

// CanonicalRender renders the table with every volatile (timing) cell
// replaced by the placeholder "~". Two runs of the same experiment with the
// same Config — at any worker counts — produce byte-identical canonical
// renderings; the golden-table suite asserts exactly that.
func (t Table) CanonicalRender() string { return t.render(true) }
