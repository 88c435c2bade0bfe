// Package par is the multicore substrate of the sparse solver stack: a
// bounded parallel-for over index ranges with deterministic chunking,
// per-worker scratch pools, and worker-order fault reduction, designed so
// threads=1 and threads=N produce bit-identical results.
//
// The determinism contract every caller relies on:
//
//   - For splits [0, n) into exactly `workers` contiguous chunks whose
//     boundaries depend only on (workers, n) — never on scheduling — so
//     per-worker partial results are reproducible and can be merged in
//     worker-index order.
//   - FirstFault reduces per-worker failures to the one with the smallest
//     index, which for ascending scans is exactly the fault a serial loop
//     would have reported first.
//   - Workers(0) resolves to the process-wide thread budget (SetThreads);
//     a budget of 1 makes every For run inline on the calling goroutine,
//     byte-identical to the pre-parallel serial code by construction.
//
// The budget is a goroutine count, not a core count: it is deliberately
// not clamped to GOMAXPROCS so scaling ladders can record honest
// oversubscribed rungs (workers_effective = requested, gomaxprocs = what
// the box had). Only the benchmark harnesses (cmd/benchkernel,
// perfbench) set it; defenderd's dense solve path never reads it.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/defender-game/defender/internal/obs"
)

// Parallel-region counter (catalogued in OBSERVABILITY.md): one increment
// per For that fanned out to more than one worker goroutine. Against
// par.tasks_inline it shows how often the grain guards and thread budget
// actually engage the parallel paths.
var obsTasks = obs.Default().Counter("par.tasks")

// Inline-region counter (catalogued in OBSERVABILITY.md): one increment
// per For that ran on the calling goroutine (budget 1, or the range too
// small to split). A workload showing only inline tasks at threads>1 has
// ranges below the grain guards, not a scheduling problem.
var obsTasksInline = obs.Default().Counter("par.tasks_inline")

// Worker-count gauge (catalogued in OBSERVABILITY.md): the fan-out of the
// most recent parallel For — what the grain guard left of the requested
// budget.
var obsWorkers = obs.Default().Gauge("par.workers")

// Imbalance gauge (catalogued in OBSERVABILITY.md): max worker busy time
// over mean busy time (x1000) for the most recent parallel For. 1000 is a
// perfectly balanced region; sustained values far above it mean the
// contiguous chunking is fighting skewed per-index cost (e.g. hub rows in
// a power-law graph).
var obsImbalance = obs.Default().Gauge("par.imbalance")

// maxThreads bounds any budget or per-call request; far above useful
// fan-out, it only guards against absurd flag values.
const maxThreads = 1024

// threads is the process-wide default worker budget; 0 means "unset, use
// GOMAXPROCS at resolve time" so tests that never touch the budget follow
// the runtime's sizing.
var threads atomic.Int64

// Threads returns the current default worker budget.
func Threads() int {
	if t := threads.Load(); t > 0 {
		return int(t)
	}
	return min(runtime.GOMAXPROCS(0), maxThreads)
}

// SetThreads sets the process-wide default worker budget and returns the
// effective value: n <= 0 resets to GOMAXPROCS-at-use, n > maxThreads
// saturates. The budget is read by Workers(0) at each call, so a change
// applies to every subsequent parallel region in the process.
func SetThreads(n int) int {
	if n <= 0 {
		threads.Store(0)
		return Threads()
	}
	n = min(n, maxThreads)
	threads.Store(int64(n))
	return n
}

// Workers resolves a per-call worker request: n <= 0 defers to the
// process budget, anything else is clamped to [1, maxThreads].
func Workers(n int) int {
	if n <= 0 {
		return Threads()
	}
	return min(n, maxThreads)
}

// Split shrinks a worker count so every chunk of an n-element range keeps
// at least minGrain elements — the guard that stops fine-grained levels
// (tiny BFS frontiers, short tuple tables) from paying goroutine fan-out
// for a handful of indices. Deterministic in (workers, n, minGrain).
func Split(workers, n, minGrain int) int {
	if minGrain < 1 {
		minGrain = 1
	}
	if byGrain := n / minGrain; workers > byGrain {
		workers = byGrain
	}
	return max(workers, 1)
}

// For runs fn over [0, n) split into exactly `workers` contiguous chunks:
// fn(w, lo, hi) handles indices [lo, hi) as worker w in 0..workers-1.
// Chunk boundaries depend only on (workers, n), so per-worker partials
// indexed by w are deterministic and mergeable in worker order. With
// workers <= 1 (or n <= 1) fn runs inline on the calling goroutine —
// no goroutines, no atomics, no barrier.
//
// fn must not assume chunks run in any order, and cross-chunk writes must
// use atomic claims; everything written before For returns is visible to
// the caller (the join is a happens-before edge).
func For(workers, n int, fn func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		obsTasksInline.Inc()
		fn(0, 0, n)
		return
	}
	obsTasks.Inc()
	obsWorkers.Set(float64(workers))
	busy := make([]time.Duration, workers)
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			start := time.Now()
			fn(w, w*n/workers, (w+1)*n/workers)
			busy[w] = time.Since(start)
		}(w)
	}
	start := time.Now()
	fn(0, 0, n/workers)
	busy[0] = time.Since(start)
	wg.Wait()

	var total, peak time.Duration
	for _, d := range busy {
		total += d
		if d > peak {
			peak = d
		}
	}
	if total > 0 {
		obsImbalance.Set(float64(peak) * float64(workers) * 1000 / float64(total))
	}
}

// Fault is one worker's first failure in an ascending scan: the index it
// occurred at and the error built at the point of detection. Workers fill
// exactly one Fault (their chunk's first, then stop scanning), so
// FirstFault over the per-worker slice recovers the globally first
// failure.
type Fault struct {
	At  int
	Err error
}

// FirstFault reduces per-worker faults to the one with the smallest
// index — for ascending scans, exactly the error a serial loop reports
// first — or nil when no worker failed. Ties (impossible for disjoint
// chunks) break toward the lower worker index, keeping the reduction
// deterministic regardless.
func FirstFault(faults []Fault) error {
	best := -1
	for w := range faults {
		if faults[w].Err == nil {
			continue
		}
		if best < 0 || faults[w].At < faults[best].At {
			best = w
		}
	}
	if best < 0 {
		return nil
	}
	return faults[best].Err
}
