package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForCoversRangeExactlyOnce checks the chunking contract: every index
// in [0, n) is handled exactly once, for worker counts on both sides of n.
func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16, 100} {
		for _, n := range []int{0, 1, 5, 64, 1000} {
			hits := make([]int32, n)
			For(workers, n, func(w, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d handled %d times", workers, n, i, h)
				}
			}
		}
	}
}

// TestForChunksDeterministic checks that chunk boundaries depend only on
// (workers, n): two runs hand every worker the same range.
func TestForChunksDeterministic(t *testing.T) {
	record := func() [][2]int {
		got := make([][2]int, 4)
		For(4, 1003, func(w, lo, hi int) { got[w] = [2]int{lo, hi} })
		return got
	}
	a, b := record(), record()
	covered := 0
	for w := range a {
		if a[w] != b[w] {
			t.Fatalf("worker %d chunk changed between runs: %v vs %v", w, a[w], b[w])
		}
		covered += a[w][1] - a[w][0]
	}
	if covered != 1003 {
		t.Fatalf("chunks cover %d indices, want 1003", covered)
	}
}

// TestForWorkerOrderMerge checks the deterministic-reduction pattern:
// per-worker partial sums merged in worker order give the serial total,
// independent of the worker count.
func TestForWorkerOrderMerge(t *testing.T) {
	const n = 100000
	want := int64(n) * (n - 1) / 2
	for _, workers := range []int{1, 2, 5, 8} {
		partial := make([]int64, workers)
		For(workers, n, func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				partial[w] += int64(i)
			}
		})
		var total int64
		for w := 0; w < workers; w++ {
			total += partial[w]
		}
		if total != want {
			t.Fatalf("workers=%d: merged sum %d, want %d", workers, total, want)
		}
	}
}

// TestForInlineWhenSingleWorker checks that the budget-1 path never
// leaves the calling goroutine (no fan-out to observe: the closure sees
// the same goroutine-local state throughout).
func TestForInlineWhenSingleWorker(t *testing.T) {
	calls := 0
	For(1, 100, func(w, lo, hi int) {
		calls++
		if w != 0 || lo != 0 || hi != 100 {
			t.Fatalf("inline chunk = (%d, %d, %d), want (0, 0, 100)", w, lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("inline For called fn %d times, want 1", calls)
	}
}

func TestFirstFault(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	cases := []struct {
		faults []Fault
		want   error
	}{
		{nil, nil},
		{[]Fault{{}, {}}, nil},
		{[]Fault{{At: 7, Err: errA}, {}}, errA},
		{[]Fault{{At: 7, Err: errA}, {At: 3, Err: errB}}, errB},
		{[]Fault{{At: 3, Err: errA}, {At: 7, Err: errB}}, errA},
	}
	for i, c := range cases {
		if got := FirstFault(c.faults); !errors.Is(got, c.want) && got != c.want {
			t.Errorf("case %d: FirstFault = %v, want %v", i, got, c.want)
		}
	}
}

func TestSplit(t *testing.T) {
	cases := []struct{ workers, n, grain, want int }{
		{8, 100, 1000, 1},  // range below one grain: serial
		{8, 8000, 1000, 8}, // exactly enough for all workers
		{8, 3000, 1000, 3}, // shrink to keep chunks at grain
		{1, 1 << 20, 1, 1}, // serial budget stays serial
		{4, 0, 1000, 1},    // empty range
		{8, 100, 0, 8},     // degenerate grain defends itself
	}
	for _, c := range cases {
		if got := Split(c.workers, c.n, c.grain); got != c.want {
			t.Errorf("Split(%d, %d, %d) = %d, want %d", c.workers, c.n, c.grain, got, c.want)
		}
	}
}

func TestThreadsBudget(t *testing.T) {
	defer SetThreads(0)
	if got := SetThreads(3); got != 3 {
		t.Fatalf("SetThreads(3) = %d", got)
	}
	if got := Threads(); got != 3 {
		t.Fatalf("Threads() = %d after SetThreads(3)", got)
	}
	if got := Workers(0); got != 3 {
		t.Fatalf("Workers(0) = %d, want budget 3", got)
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d, want explicit request honored", got)
	}
	if got := SetThreads(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("SetThreads(0) = %d, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
	if got := SetThreads(maxThreads + 5); got != maxThreads {
		t.Fatalf("SetThreads(max+5) = %d, want saturation at %d", got, maxThreads)
	}
}

// TestPoolRoundTrip checks that pooled scratch keeps capacity across a
// get/put cycle and that undersized entries degrade to allocation.
func TestPoolRoundTrip(t *testing.T) {
	s := GetInt32(1000)
	if len(s) != 1000 {
		t.Fatalf("GetInt32(1000) len = %d", len(s))
	}
	s[0], s[999] = 1, 2
	PutInt32(s)
	s2 := GetInt32(500)
	if len(s2) != 500 {
		t.Fatalf("GetInt32(500) len = %d", len(s2))
	}
	PutInt32(s2)
	PutInt32(nil) // nil is a no-op, not a poison pill
}

// TestForParallelFaultScan exercises the canonical find-first-error shape
// under real fan-out: ascending scans with per-worker first faults reduce
// to the serial answer at any worker count.
func TestForParallelFaultScan(t *testing.T) {
	const n = 10000
	bad := map[int]bool{137: true, 4096: true, 9999: true}
	for _, workers := range []int{1, 2, 8} {
		faults := make([]Fault, workers)
		For(workers, n, func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				if bad[i] {
					faults[w] = Fault{At: i, Err: fmt.Errorf("bad index %d", i)}
					return
				}
			}
		})
		err := FirstFault(faults)
		if err == nil || err.Error() != "bad index 137" {
			t.Fatalf("workers=%d: FirstFault = %v, want bad index 137", workers, err)
		}
	}
}
