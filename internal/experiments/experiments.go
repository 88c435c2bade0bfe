// Package experiments regenerates the paper's results as tables. The paper
// ("The Power of the Defender", ICDCS 2006) is theory-only — it has no
// measured tables or figures — so each experiment here turns one theorem
// into a measurable, self-checking artifact: existence frontiers, exact
// equilibrium verification, the linear-in-k defender gain, Monte-Carlo
// validation, and running-time scaling. EXPERIMENTS.md records expected
// versus measured output for every table; cmd/experiments prints them.
//
// Tables are built from independent (graph, k) cells executed on a bounded
// worker pool (see Runner): parallel runs reassemble rows in declared order,
// so the rendered output is independent of the worker count.
package experiments

import (
	"fmt"
	"strings"
)

// Config tunes the sweep sizes of all experiments.
type Config struct {
	// Quick shrinks every sweep so the full suite runs in well under a
	// second — used by tests and the benchmark harness.
	Quick bool
	// Seed feeds every randomized workload; experiments are deterministic
	// for a fixed Config.
	Seed int64
	// Workers bounds the cell worker pool of every table builder;
	// <= 0 means runtime.GOMAXPROCS(0). Output is byte-identical for any
	// worker count (timing columns excepted; see Table.Volatile).
	Workers int

	// failFirstCell is a test hook: when set, every Runner fails its first
	// cell with errCellFault, exercising each builder's error path so the
	// zero-table-on-error contract can be swept without contriving real
	// failures per experiment.
	failFirstCell bool
}

// Table is one experiment's rendered result.
type Table struct {
	// ID is the experiment identifier ("E1".."E16"), matching the
	// section headers of EXPERIMENTS.md.
	ID string
	// Title is the human-readable one-line experiment name.
	Title string
	// Claim is the paper statement being regenerated.
	Claim string
	// Headers is the column header row.
	Headers []string
	// Rows holds the stringified result cells, one slice per row, in
	// declaration order regardless of worker scheduling.
	Rows [][]string
	// Notes are free-form footnote lines printed after the rows.
	Notes []string
	// Volatile lists column indices whose cells are environment-dependent
	// (wall-clock timings). Render prints them verbatim; the golden and
	// determinism tests mask them so their comparisons stay reproducible.
	Volatile []int
	// Stats carries the runner's execution metrics for the builders that
	// run on the cell pool. It is not rendered; cmd/experiments uses it
	// for the -bench-out emission.
	Stats RunStats
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render produces an aligned plain-text rendering of the table.
func (t Table) Render() string { return t.render(false) }

func (t Table) render(maskVolatile bool) string {
	rows := t.Rows
	if maskVolatile && len(t.Volatile) > 0 {
		volatile := make(map[int]bool, len(t.Volatile))
		for _, c := range t.Volatile {
			volatile[c] = true
		}
		rows = make([][]string, len(t.Rows))
		for i, row := range t.Rows {
			masked := make([]string, len(row))
			for j, cell := range row {
				if volatile[j] {
					masked[j] = "~"
				} else {
					masked[j] = cell
				}
			}
			rows[i] = masked
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&sb, "claim: %s\n", t.Claim)

	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Failures returns the rows whose last cell is not "ok" — every experiment
// writes a self-check verdict in its final column.
func (t Table) Failures() [][]string {
	var bad [][]string
	for _, row := range t.Rows {
		if len(row) > 0 && row[len(row)-1] != "ok" {
			bad = append(bad, row)
		}
	}
	return bad
}

// Experiment is one experiment entry point. Every builder honors the
// zero-table contract: on a non-nil error the returned Table is the zero
// value, never a partially filled table.
type Experiment struct {
	// ID is the table identifier ("E1".."E16") used by -only selection.
	ID string
	// Name is the short kebab-case slug of the experiment.
	Name string
	// Run builds the table for one configuration.
	Run func(Config) (Table, error)
}

// All lists every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Name: "pure-existence", Run: E1PureExistence},
		{ID: "E2", Name: "gain-vs-k", Run: E2GainVsK},
		{ID: "E3", Name: "reduction-roundtrip", Run: E3ReductionRoundTrip},
		{ID: "E4", Name: "atuple-scaling", Run: E4ATupleScaling},
		{ID: "E5", Name: "monte-carlo", Run: E5MonteCarlo},
		{ID: "E6", Name: "characterization", Run: E6Characterization},
		{ID: "E7", Name: "hit-profile", Run: E7HitProfile},
		{ID: "E8", Name: "substrates", Run: E8Substrates},
		{ID: "E9", Name: "extensions", Run: E9Extensions},
		{ID: "E10", Name: "value-oracle", Run: E10ValueOracle},
		{ID: "E11", Name: "learning-dynamics", Run: E11LearningDynamics},
		{ID: "E12", Name: "protection-economics", Run: E12ProtectionEconomics},
		{ID: "E13", Name: "robust-defense", Run: E13RobustDefense},
		{ID: "E14", Name: "weighted-defense", Run: E14WeightedDefense},
		{ID: "E15", Name: "path-model", Run: E15PathModel},
		{ID: "E16", Name: "complete-solver", Run: E16CompleteSolver},
	}
}

// verdict renders a boolean self-check as the canonical last-column cell.
func verdict(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAIL"
}
