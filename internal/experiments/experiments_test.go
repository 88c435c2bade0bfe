package experiments

import (
	"strings"
	"testing"
)

func quickCfg() Config { return Config{Quick: true, Seed: 1} }

// TestAllExperimentsSelfCheck runs every experiment in quick mode and
// asserts that every row's built-in verdict is "ok" — this is the
// regression gate for the whole reproduction.
func TestAllExperimentsSelfCheck(t *testing.T) {
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			table, err := r.Run(quickCfg())
			if err != nil {
				t.Fatalf("%s failed: %v", r.ID, err)
			}
			if len(table.Rows) == 0 {
				t.Fatalf("%s produced no rows", r.ID)
			}
			for _, row := range table.Failures() {
				t.Errorf("%s self-check failed: %v", r.ID, row)
			}
		})
	}
}

func TestAllRunnersHaveDistinctIDs(t *testing.T) {
	seen := make(map[string]bool)
	for _, r := range All() {
		if seen[r.ID] {
			t.Errorf("duplicate experiment id %s", r.ID)
		}
		seen[r.ID] = true
		if r.Name == "" || r.Run == nil {
			t.Errorf("%s: incomplete runner", r.ID)
		}
	}
}

func TestTableRender(t *testing.T) {
	table := Table{
		ID:      "EX",
		Title:   "demo",
		Claim:   "rendering works",
		Headers: []string{"a", "long-header"},
		Notes:   []string{"a note"},
	}
	table.AddRow("1", "2")
	table.AddRow("333", "4")
	out := table.Render()
	for _, want := range []string{"EX — demo", "claim: rendering works", "long-header", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Alignment: header separator row present.
	if !strings.Contains(out, "---") {
		t.Error("missing separator")
	}
}

func TestFailuresDetection(t *testing.T) {
	table := Table{Headers: []string{"x", "check"}}
	table.AddRow("1", "ok")
	table.AddRow("2", "FAIL")
	if got := len(table.Failures()); got != 1 {
		t.Errorf("Failures = %d, want 1", got)
	}
}

func TestVerdict(t *testing.T) {
	if verdict(true) != "ok" || verdict(false) != "FAIL" {
		t.Error("verdict rendering wrong")
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Quick {
		t.Error("default config must run the full sweeps")
	}
}

// DefaultConfig is the configuration the golden tables were generated with.
func DefaultConfig() Config { return Config{Seed: 1} }
