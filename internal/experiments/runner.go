package experiments

import (
	"errors"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/defender-game/defender/internal/obs"
)

// Runner metrics (catalogued in OBSERVABILITY.md). Cell outcomes are
// counted process-wide; per-cell latency feeds both the suite-wide
// histogram and — via finish, which knows the table ID — one histogram per
// table, so a slow table is attributable without re-running it.
var (
	obsCellsStarted = obs.Default().Counter("experiments.cells.started")
	obsCellsOK      = obs.Default().Counter("experiments.cells.ok")
	obsCellsFailed  = obs.Default().Counter("experiments.cells.failed")
	obsCellSeconds  = obs.Default().Histogram("experiments.cell_seconds")
)

// A Cell is one independent unit of table work — typically one (graph, k)
// probe — returning the rows it contributes. Cells of one table must not
// share mutable state: the runner executes them concurrently.
type Cell func() ([][]string, error)

// Runner executes a table's cells on a bounded worker pool and reassembles
// their rows in declared order, so the assembled table is byte-identical to
// a sequential run regardless of worker count or scheduling.
type Runner struct {
	workers   int
	failFirst bool // Config.failFirstCell test hook

	mu        sync.Mutex
	durations []time.Duration
	wall      time.Duration
}

// errCellFault is the injected failure of the failFirstCell test hook.
var errCellFault = errors.New("experiments: injected cell fault")

// newRunner builds the runner a table builder uses for one Config: at most
// cfg.Workers workers, runtime.GOMAXPROCS(0) when cfg.Workers <= 0.
func newRunner(cfg Config) *Runner {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers, failFirst: cfg.failFirstCell}
}

// Run executes every cell on at most r.workers goroutines and returns all
// produced rows concatenated in cell-declaration order. If any cells fail,
// the error of the earliest-declared failing cell is returned (again
// independent of scheduling) and no rows. Per-cell durations accumulate
// into stats across Run calls.
func (r *Runner) Run(cells []Cell) ([][]string, error) {
	type result struct {
		rows [][]string
		err  error
	}
	results := make([]result, len(cells))
	durations := make([]time.Duration, len(cells))

	start := time.Now()
	jobs := make(chan int)
	var wg sync.WaitGroup
	workers := r.workers
	if workers > len(cells) {
		workers = len(cells)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				obsCellsStarted.Inc()
				cellStart := time.Now()
				if i == 0 && r.failFirst {
					results[i] = result{err: errCellFault}
				} else {
					rows, err := cells[i]()
					results[i] = result{rows: rows, err: err}
				}
				durations[i] = time.Since(cellStart)
				obsCellSeconds.Observe(durations[i].Seconds())
				if results[i].err != nil {
					obsCellsFailed.Inc()
				} else {
					obsCellsOK.Inc()
				}
			}
		}()
	}
	for i := range cells {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	r.mu.Lock()
	r.durations = append(r.durations, durations...)
	r.wall += time.Since(start)
	r.mu.Unlock()

	for _, res := range results {
		if res.err != nil {
			return nil, res.err
		}
	}
	var rows [][]string
	for _, res := range results {
		rows = append(rows, res.rows...)
	}
	return rows, nil
}

// RunStats summarizes the cell executions of a runner (or of one table,
// via Table.Stats).
type RunStats struct {
	// Cells is the number of cells executed.
	Cells int
	// Wall is the wall-clock time spent inside Run (all calls summed).
	Wall time.Duration
	// CellP50 is the median single-cell latency.
	CellP50 time.Duration
	// CellP95 is the 95th-percentile single-cell latency.
	CellP95 time.Duration
	// CellP99 is the 99th-percentile single-cell latency.
	CellP99 time.Duration
	// CellMax is the slowest single cell observed.
	CellMax time.Duration
}

// CellsPerSec is the cell throughput over the runner's wall time.
func (s RunStats) CellsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Cells) / s.Wall.Seconds()
}

// stats returns the metrics accumulated by every Run call so far.
func (r *Runner) stats() RunStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := RunStats{Cells: len(r.durations), Wall: r.wall}
	if len(r.durations) == 0 {
		return s
	}
	sorted := make([]time.Duration, len(r.durations))
	copy(sorted, r.durations)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s.CellP50 = percentile(sorted, 50)
	s.CellP95 = percentile(sorted, 95)
	s.CellP99 = percentile(sorted, 99)
	s.CellMax = sorted[len(sorted)-1]
	return s
}

// percentile returns the nearest-rank p-th percentile of ascending sorted
// durations.
func percentile(sorted []time.Duration, p int) time.Duration {
	idx := (len(sorted)*p + 99) / 100
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}

// finish stamps the runner's stats onto a completed table and replays the
// per-cell durations into the table's own latency histogram
// ("experiments.table.<ID>.cell_seconds") — the runner itself never learns
// the table ID, but every builder funnels through finish exactly once.
func (r *Runner) finish(t Table) Table {
	t.Stats = r.stats()
	if t.ID != "" && obs.Default().Enabled() {
		// lint:invariant(metricname): per-table family, catalogued as experiments.table.<id>.cell_seconds
		h := obs.Default().Histogram("experiments.table." + t.ID + ".cell_seconds")
		r.mu.Lock()
		durations := append([]time.Duration(nil), r.durations...)
		r.mu.Unlock()
		for _, d := range durations {
			h.Observe(d.Seconds())
		}
	}
	return t
}
