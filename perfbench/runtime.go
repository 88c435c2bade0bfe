package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readMetric reads one uint64 runtime metric.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() uint64 { return readMetric("/gc/heap/allocs:bytes") }

// gcCounts is the number of completed GC cycles and their total
// stop-the-world pause so far.
func gcCounts() (cycles uint32, pause time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC, time.Duration(ms.PauseTotalNs)
}

// heapSampler records the peak heap goal — the heap size the collector
// lets the program reach before the next cycle must finish, set from the
// live heap each cycle marked — sampled every couple of milliseconds
// between start and stop. It tracks the peak heap without the scatter of
// sampling the heap between collections.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peak  uint64 // written by the sampling goroutine only, read after done
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			h.sample()
			select {
			case <-h.stopc:
				h.sample()
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	h.peak = max(h.peak, readMetric("/gc/heap/goal:bytes"))
}

// stop ends sampling and returns the peak in MiB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// usage is the resource use of one measured stretch of work.
type usage struct {
	cpu      time.Duration
	gcCycles uint32
	gcPause  time.Duration
}

func usageNow() usage {
	c, p := gcCounts()
	return usage{cpu: cpuTime(), gcCycles: c, gcPause: p}
}

func (u usage) since(start usage) usage {
	return usage{cpu: u.cpu - start.cpu, gcCycles: u.gcCycles - start.gcCycles, gcPause: u.gcPause - start.gcPause}
}

func (u usage) plus(v usage) usage {
	return usage{cpu: u.cpu + v.cpu, gcCycles: u.gcCycles + v.gcCycles, gcPause: u.gcPause + v.gcPause}
}
