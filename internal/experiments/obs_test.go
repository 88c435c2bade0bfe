package experiments

import (
	"os"
	"testing"

	"github.com/defender-game/defender/internal/obs"
)

// TestMain enables the process-wide metrics registry for every test in the
// package. This is deliberate: the golden-table and parallel-determinism
// tests then run with the instrumentation live, proving that recording
// counters, gauges, histograms and spans perturbs neither the computed
// values nor the byte-identical rendering guarantee.
func TestMain(m *testing.M) {
	obs.Default().SetEnabled(true)
	os.Exit(m.Run())
}

// counterDelta snapshots a set of counters around fn and returns how much
// each grew. The registry is process-wide, so deltas — not absolutes — are
// the only sound assertion when other tests share the process.
func counterDelta(names []string, fn func()) map[string]uint64 {
	before := make(map[string]uint64, len(names))
	snap := obs.Default().Snapshot()
	for _, n := range names {
		before[n] = snap.Counters[n]
	}
	fn()
	snap = obs.Default().Snapshot()
	out := make(map[string]uint64, len(names))
	for _, n := range names {
		out[n] = snap.Counters[n] - before[n]
	}
	return out
}

// TestRunnerCountersAccounting: a table run of C cells adds exactly C to
// started and ok (no failures on the golden workload), and C observations
// to the cell-latency histogram.
func TestRunnerCountersAccounting(t *testing.T) {
	var e Experiment
	for _, cand := range All() {
		if cand.ID == "E1" {
			e = cand
		}
	}
	if e.ID == "" {
		t.Fatal("E1 not registered")
	}
	names := []string{
		"experiments.cells.started",
		"experiments.cells.ok",
		"experiments.cells.failed",
	}
	histBefore := obs.Default().Snapshot().Histograms["experiments.cell_seconds"].Count

	var cells int
	d := counterDelta(names, func() {
		table, err := e.Run(Config{Quick: true, Seed: 1, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		cells = table.Stats.Cells
	})
	if cells == 0 {
		t.Fatal("E1 ran no cells")
	}
	want := uint64(cells)
	if d["experiments.cells.started"] != want || d["experiments.cells.ok"] != want || d["experiments.cells.failed"] != 0 {
		t.Errorf("cell counters: want %d started, %d ok, 0 failed; got %v", want, want, d)
	}
	histAfter := obs.Default().Snapshot().Histograms["experiments.cell_seconds"].Count
	if histAfter-histBefore != want {
		t.Errorf("cell_seconds histogram grew by %d, want %d", histAfter-histBefore, want)
	}
}
