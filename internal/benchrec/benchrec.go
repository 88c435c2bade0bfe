// Package benchrec defines the versioned on-disk schema of the perf
// baselines written by cmd/experiments (-bench-out, -bench-history) and
// consumed by cmd/benchdiff: a Report stamps one suite run with its git
// SHA, timestamp and host environment, carries per-table wall time,
// throughput and cell-latency percentiles, and embeds the full
// observability snapshot of internal/obs.
//
// The package is the single serializer for that schema: Save writes
// canonical indented JSON and Load rejects malformed input and unknown
// schema versions, so a report produced by Save round-trips through
// Load/Save byte-identically. History (history.go) appends reports to a
// directory, one file per run, building the longitudinal record that
// benchdiff gates against; Aggregate (aggregate.go) folds repeated
// samples of one table into a robust min/median record.
package benchrec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"github.com/defender-game/defender/internal/obs"
)

// SchemaVersion is the current bench-record schema. Version 1 was the
// unversioned BENCH_experiments.json of the first observability PR (no
// environment stamp, no p99/max, no cell_timing marker); Load rejects
// those with a regeneration hint rather than silently comparing
// incompatible shapes.
const SchemaVersion = 2

// Report is one suite run's perf record: the schema of
// BENCH_experiments.json and of every bench/history entry.
type Report struct {
	// SchemaVersion identifies the record shape; Load accepts only the
	// package's SchemaVersion.
	SchemaVersion int `json:"schema_version"`
	// Suite names the producing command ("experiments").
	Suite string `json:"suite"`
	// Quick records whether the reduced sweeps ran.
	Quick bool `json:"quick"`
	// Seed is the workload seed the suite ran with.
	Seed int64 `json:"seed"`
	// GitSHA is the commit the binary was built from (best effort; empty
	// when the working tree is not a git checkout).
	GitSHA string `json:"git_sha,omitempty"`
	// Timestamp is the UTC completion time of the run, second resolution
	// so the canonical JSON form is stable.
	Timestamp time.Time `json:"timestamp"`
	// Hostname, GOOS and GOARCH identify the machine: cross-host deltas
	// are hardware comparisons, not regressions, and benchdiff flags them.
	Hostname string `json:"hostname,omitempty"`
	GOOS     string `json:"goos"`
	GOARCH   string `json:"goarch"`
	// WorkersRequested is the raw -workers flag (0 = defaulted);
	// WorkersEffective is the pool size the tables actually ran with.
	WorkersRequested int `json:"workers_requested"`
	WorkersEffective int `json:"workers_effective"`
	GoMaxProcs       int `json:"gomaxprocs"`
	// BenchRepeat is the number of timing passes each table ran
	// (-bench-repeat); per-table figures aggregate that many samples.
	BenchRepeat int `json:"bench_repeat"`
	// TotalWallMS is the wall time of the whole suite invocation,
	// including every repeat pass.
	TotalWallMS float64 `json:"total_wall_ms"`
	// Tables holds one aggregated entry per experiment, in run order.
	Tables []Table `json:"tables"`
	// Metrics is the observability snapshot taken after the suite. With
	// BenchRepeat > 1 counters accumulate across all passes.
	Metrics obs.Snapshot `json:"metrics"`
}

// Table is one experiment's aggregated perf entry.
type Table struct {
	// ID is the experiment identifier ("E1".."E16").
	ID string `json:"id"`
	// Rows is the number of rendered table rows; Cells the number of
	// runner-executed work units behind them.
	Rows  int `json:"rows"`
	Cells int `json:"cells"`
	// CellTiming is false for tables whose work happens outside the cell
	// runner (Cells == 0): their throughput and percentile fields are
	// structurally zero, not a measurement, and benchdiff skips
	// throughput comparison for them.
	CellTiming bool `json:"cell_timing"`
	// Samples is how many timing passes this entry aggregates.
	Samples int `json:"samples"`
	// Threads is the solver thread budget the table ran with (0 = the
	// suite's single-threaded default). Only the committed csr-scaling
	// records in bench/history carry it: their thread-ladder rungs
	// above 1 have a /threads=N ID suffix, so benchdiff compares like
	// against like.
	Threads int `json:"threads,omitempty"`
	// WallMS is the table's wall time: the minimum across samples (the
	// least-interfered-with run; see Aggregate).
	WallMS float64 `json:"wall_ms"`
	// CellsPerSec is Cells over the minimum wall time.
	CellsPerSec float64 `json:"cells_per_sec"`
	// Cell latency percentiles and max in milliseconds: the median
	// across samples of each per-sample nearest-rank statistic.
	CellP50MS float64 `json:"cell_p50_ms"`
	CellP95MS float64 `json:"cell_p95_ms"`
	CellP99MS float64 `json:"cell_p99_ms"`
	CellMaxMS float64 `json:"cell_max_ms"`
}

// StampEnvironment fills the report's provenance fields: SchemaVersion,
// GitSHA (best effort, from repoDir or the working directory when empty),
// Timestamp (now, UTC, second resolution), Hostname, GOOS and GOARCH.
func (r *Report) StampEnvironment(repoDir string) {
	r.SchemaVersion = SchemaVersion
	r.GitSHA = gitSHA(repoDir)
	r.Timestamp = time.Now().UTC().Truncate(time.Second)
	if host, err := os.Hostname(); err == nil {
		r.Hostname = host
	}
	r.GOOS = runtime.GOOS
	r.GOARCH = runtime.GOARCH
}

// gitSHA returns the HEAD commit of the repository containing dir (the
// working directory when dir is empty), or "" when git or the repository
// is unavailable — bench records stay usable outside a checkout.
func gitSHA(dir string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// Marshal renders the report in its canonical form: two-space indented
// JSON with a trailing newline. Save, the history store and the
// -bench-out emission all funnel through here, so any two byte-equal
// records are the same measurement.
func (r *Report) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("benchrec: marshal report: %w", err)
	}
	return append(data, '\n'), nil
}

// Save writes the report to path in canonical form.
func (r *Report) Save(path string) error {
	data, err := r.Marshal()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("benchrec: save report: %w", err)
	}
	return nil
}

// parse decodes a bench record, rejecting malformed JSON, unknown fields,
// and any schema version other than the current one with a descriptive
// error. name labels the source in errors (a path, usually).
func parse(name string, data []byte) (*Report, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("benchrec: %s is not a bench record: %w", name, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("benchrec: %s has trailing data after the report object", name)
	}
	switch {
	case r.SchemaVersion == 0:
		return nil, fmt.Errorf("benchrec: %s has no schema_version — pre-v%d record; regenerate it with a current cmd/experiments -bench-out", name, SchemaVersion)
	case r.SchemaVersion != SchemaVersion:
		return nil, fmt.Errorf("benchrec: %s has schema_version %d, this tool reads %d", name, r.SchemaVersion, SchemaVersion)
	}
	if r.Suite == "" {
		return nil, fmt.Errorf("benchrec: %s has an empty suite field", name)
	}
	return &r, nil
}

// Load reads and validates the bench record at path.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchrec: %w", err)
	}
	return parse(path, data)
}
