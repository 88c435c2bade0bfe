package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestRunnerRowsInDeclaredOrder is the determinism core: rows come back in
// cell-declaration order no matter how many workers race, even when later
// cells finish first.
func TestRunnerRowsInDeclaredOrder(t *testing.T) {
	const n = 40
	r := newRunner(Config{Workers: 8})
	cells := make([]Cell, n)
	for i := 0; i < n; i++ {
		i := i
		cells[i] = func() ([][]string, error) {
			// Earlier-declared cells sleep longer, inverting finish order.
			time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
			return [][]string{{fmt.Sprint(i)}}, nil
		}
	}
	rows, err := r.Run(cells)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rows) != n {
		t.Fatalf("got %d rows, want %d", len(rows), n)
	}
	for i, row := range rows {
		if row[0] != fmt.Sprint(i) {
			t.Fatalf("row %d = %q, want %q", i, row[0], fmt.Sprint(i))
		}
	}
}

// TestRunnerMultiRowCells checks concatenation of variable-size row groups.
func TestRunnerMultiRowCells(t *testing.T) {
	r := newRunner(Config{Workers: 4})
	rows, err := r.Run([]Cell{
		func() ([][]string, error) { return [][]string{{"a"}, {"b"}}, nil },
		func() ([][]string, error) { return nil, nil },
		func() ([][]string, error) { return [][]string{{"c"}}, nil },
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"a", "b", "c"}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, w := range want {
		if rows[i][0] != w {
			t.Errorf("row %d = %q, want %q", i, rows[i][0], w)
		}
	}
}

// TestRunnerErrorPrecedence: when several cells fail, the earliest-declared
// failure is reported — independent of scheduling — and no rows leak out.
func TestRunnerErrorPrecedence(t *testing.T) {
	errA := errors.New("cell 2 failed")
	errB := errors.New("cell 5 failed")
	r := newRunner(Config{Workers: 8})
	cells := make([]Cell, 8)
	for i := range cells {
		i := i
		cells[i] = func() ([][]string, error) {
			switch i {
			case 2:
				time.Sleep(2 * time.Millisecond) // fail late...
				return nil, errA
			case 5:
				return nil, errB // ...while a later cell fails first
			}
			return [][]string{{"x"}}, nil
		}
	}
	rows, err := r.Run(cells)
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want earliest-declared %v", err, errA)
	}
	if rows != nil {
		t.Fatalf("rows = %v, want nil on error", rows)
	}
}

func TestRunnerStats(t *testing.T) {
	r := newRunner(Config{Workers: 3})
	var cells []Cell
	for i := 0; i < 10; i++ {
		cells = append(cells, func() ([][]string, error) {
			time.Sleep(200 * time.Microsecond)
			return [][]string{{"ok"}}, nil
		})
	}
	if _, err := r.Run(cells); err != nil {
		t.Fatalf("Run: %v", err)
	}
	s := r.stats()
	if s.Cells != 10 {
		t.Errorf("Cells = %d, want 10", s.Cells)
	}
	if s.Wall <= 0 {
		t.Errorf("Wall = %v, want > 0", s.Wall)
	}
	if s.CellP50 <= 0 || s.CellP95 < s.CellP50 {
		t.Errorf("percentiles p50=%v p95=%v inconsistent", s.CellP50, s.CellP95)
	}
	if s.CellP99 < s.CellP95 || s.CellMax < s.CellP99 {
		t.Errorf("tail stats p95=%v p99=%v max=%v not monotone", s.CellP95, s.CellP99, s.CellMax)
	}
	if s.CellsPerSec() <= 0 {
		t.Errorf("CellsPerSec = %v, want > 0", s.CellsPerSec())
	}
}

func TestRunnerStatsAccumulateAcrossRuns(t *testing.T) {
	r := newRunner(Config{Workers: 2})
	one := []Cell{func() ([][]string, error) { return nil, nil }}
	for i := 0; i < 3; i++ {
		if _, err := r.Run(one); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	if got := r.stats().Cells; got != 3 {
		t.Errorf("Cells = %d, want 3 accumulated", got)
	}
}

func TestNewRunnerDefaultsToGOMAXPROCS(t *testing.T) {
	if got, want := newRunner(Config{Workers: 0}).workers, runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Workers = %d, want %d", got, want)
	}
	if got := newRunner(Config{Workers: -3}).workers; got < 1 {
		t.Errorf("Workers = %d, want >= 1", got)
	}
	if got := newRunner(Config{Workers: 5}).workers; got != 5 {
		t.Errorf("Workers = %d, want 5", got)
	}
}

func TestRunnerNoCells(t *testing.T) {
	rows, err := newRunner(Config{Workers: 4}).Run(nil)
	if err != nil || rows != nil {
		t.Errorf("empty Run = (%v, %v), want (nil, nil)", rows, err)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(sorted, 95); got != 10 {
		t.Errorf("p95 = %v, want 10", got)
	}
	if got := percentile([]time.Duration{7}, 50); got != 7 {
		t.Errorf("single-element p50 = %v, want 7", got)
	}
	if got := percentile(sorted, 99); got != 10 {
		t.Errorf("p99 = %v, want 10", got)
	}
}

// TestRunnerStatsMax: CellMax is the exact slowest cell, not an estimate.
func TestRunnerStatsMax(t *testing.T) {
	r := newRunner(Config{Workers: 2})
	_, err := r.Run([]Cell{
		func() ([][]string, error) { return nil, nil },
		func() ([][]string, error) { time.Sleep(3 * time.Millisecond); return nil, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	s := r.stats()
	if s.CellMax < 3*time.Millisecond {
		t.Errorf("CellMax = %v, want >= 3ms (the slow cell)", s.CellMax)
	}
	if s.CellP99 > s.CellMax {
		t.Errorf("p99 %v exceeds max %v", s.CellP99, s.CellMax)
	}
}

// TestFailFirstCellHook: the Config test hook makes the runner fail its
// first declared cell without running it.
func TestFailFirstCellHook(t *testing.T) {
	r := newRunner(Config{Workers: 4, failFirstCell: true})
	ran := false
	_, err := r.Run([]Cell{
		func() ([][]string, error) { ran = true; return nil, nil },
		func() ([][]string, error) { return [][]string{{"x"}}, nil },
	})
	if !errors.Is(err, errCellFault) {
		t.Fatalf("err = %v, want errCellFault", err)
	}
	if ran {
		t.Error("faulted cell must not run")
	}
}
