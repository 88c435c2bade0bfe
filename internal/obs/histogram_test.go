package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBasicStats(t *testing.T) {
	r := enabledRegistry()
	h := r.Histogram("h")
	for _, v := range []float64{0.001, 0.002, 0.003, 0.004} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if math.Abs(h.Sum()-0.010) > 1e-12 {
		t.Errorf("sum = %v, want 0.010", h.Sum())
	}
	s := h.Snapshot()
	if math.Abs(s.Min-0.001) > 1e-12 || math.Abs(s.Max-0.004) > 1e-12 {
		t.Errorf("min/max = %v/%v, want 0.001/0.004 exactly", s.Min, s.Max)
	}
}

// quantile estimates land within one geometric bucket (±25% relative) of
// the true order statistic, and are clamped into the observed range.
func TestHistogramQuantileAccuracy(t *testing.T) {
	r := enabledRegistry()
	h := r.Histogram("h")
	// 1000 observations: 1ms, 2ms, ..., 1000ms.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	checks := []struct {
		q, want float64
	}{
		{0.50, 0.500},
		{0.95, 0.950},
		{0.99, 0.990},
	}
	for _, c := range checks {
		got := h.quantile(c.q)
		if got < c.want*0.75 || got > c.want*1.30 {
			t.Errorf("q%.0f = %v, want within a bucket of %v", c.q*100, got, c.want)
		}
	}
	if p100 := h.quantile(1); math.Abs(p100-1.0) > 1e-12 {
		t.Errorf("q100 = %v, want exactly the max 1.0", p100)
	}
}

func TestHistogramSingleObservationIsExact(t *testing.T) {
	r := enabledRegistry()
	h := r.Histogram("h")
	h.Observe(0.123)
	s := h.Snapshot()
	for name, got := range map[string]float64{"p50": s.P50, "p95": s.P95, "p99": s.P99} {
		if math.Abs(got-0.123) > 1e-12 {
			t.Errorf("%s = %v, want 0.123 (min/max clamp makes single values exact)", name, got)
		}
	}
}

func TestHistogramEdgeObservations(t *testing.T) {
	r := enabledRegistry()
	h := r.Histogram("h")
	h.Observe(-5)         // clamps to 0
	h.Observe(math.NaN()) // dropped
	h.Observe(0)          // bucket 0
	h.Observe(1e12)       // beyond the top bucket bound: clamps to last bucket
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3 (NaN dropped)", h.Count())
	}
	s := h.Snapshot()
	if s.Min != 0 {
		t.Errorf("min = %v, want 0", s.Min)
	}
	if math.Abs(s.Max-1e12) > 1 {
		t.Errorf("max = %v, want 1e12 exactly", s.Max)
	}
	if s.P99 > 1e12+1 {
		t.Errorf("p99 = %v must clamp to the observed max", s.P99)
	}
}

func TestHistogramEmptySnapshot(t *testing.T) {
	r := enabledRegistry()
	h := r.Histogram("h")
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.Min != 0 || s.Max != 0 ||
		s.P50 != 0 || s.P95 != 0 || s.P99 != 0 || s.Buckets != nil {
		t.Fatalf("empty histogram snapshot = %+v, want zero value", s)
	}
}

// Snapshot buckets carry their upper boundary (the JSON /metrics fix:
// counts alone were uninterpretable without the geometric grid), are
// sorted ascending, hold per-bucket counts, and sum to Count.
func TestHistogramSnapshotBuckets(t *testing.T) {
	r := enabledRegistry()
	h := r.Histogram("h")
	obs := []float64{0.001, 0.001, 0.010, 2.5}
	for _, v := range obs {
		h.Observe(v)
	}
	s := h.Snapshot()
	if len(s.Buckets) == 0 {
		t.Fatal("snapshot has no buckets")
	}
	var total uint64
	prevLE := 0.0
	for _, b := range s.Buckets {
		if b.LE <= prevLE {
			t.Errorf("bucket boundaries not strictly ascending: %v after %v", b.LE, prevLE)
		}
		if b.Count == 0 {
			t.Errorf("empty bucket le=%v must be omitted", b.LE)
		}
		total += b.Count
		prevLE = b.LE
	}
	if total != uint64(len(obs)) {
		t.Errorf("bucket counts sum to %d, want %d", total, len(obs))
	}
	// Each observation must fall at or below its bucket's boundary.
	for _, v := range obs {
		le := bucketUpper(bucketIndex(v))
		if v > le {
			t.Errorf("observation %v above its bucket bound %v", v, le)
		}
	}
}

func TestHistogramExemplarLatestWins(t *testing.T) {
	r := enabledRegistry()
	h := r.Histogram("h")
	// Two sampled observations in the same bucket: the newest trace wins.
	h.ObserveWithExemplar(0.100, strings.Repeat("a", 32))
	h.ObserveWithExemplar(0.101, strings.Repeat("b", 32))
	// A plain observation elsewhere leaves no exemplar.
	h.Observe(3)
	s := h.Snapshot()
	var seen int
	for _, b := range s.Buckets {
		if b.Exemplar == nil {
			continue
		}
		seen++
		if b.Exemplar.TraceID != strings.Repeat("b", 32) {
			t.Errorf("exemplar trace = %q, want the most recent", b.Exemplar.TraceID)
		}
		if math.Abs(b.Exemplar.Value-0.101) > 1e-12 {
			t.Errorf("exemplar value = %v, want 0.101", b.Exemplar.Value)
		}
		if b.Exemplar.UnixNano == 0 {
			t.Error("exemplar timestamp missing")
		}
	}
	if seen != 1 {
		t.Fatalf("got %d exemplars, want 1", seen)
	}
}

func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for v := 1e-10; v < 1e4; v *= 1.07 {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucket index not monotone at v=%v: %d < %d", v, idx, prev)
		}
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("bucket index out of range at v=%v: %d", v, idx)
		}
		prev = idx
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := enabledRegistry()
	h := r.Histogram("h")
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(w*perWorker+i) * 1e-6)
			}
		}()
	}
	wg.Wait()
	if h.Count() != workers*perWorker {
		t.Fatalf("count = %d, want %d", h.Count(), workers*perWorker)
	}
	// Sum of 0..3999 µs = 7.998 s
	want := float64(workers*perWorker-1) * float64(workers*perWorker) / 2 * 1e-6
	if math.Abs(h.Sum()-want) > 1e-9 {
		t.Errorf("sum = %v, want %v (CAS accumulation must not lose updates)", h.Sum(), want)
	}
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}
