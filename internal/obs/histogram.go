package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram bucket geometry. Buckets are geometric: bucket i covers
// (histMin·histGrowth^i, histMin·histGrowth^(i+1)], with bucket 0 also
// absorbing everything <= histMin and the last bucket everything above the
// top bound. With histMin = 1 ns and 1.25 growth, 128 buckets reach ~43
// minutes, and any quantile estimate is within one bucket — a relative
// error bound of 25% — of the true order statistic.
const (
	histMin     = 1e-9
	histGrowth  = 1.25
	histBuckets = 128
)

// logGrowth is precomputed so bucket indexing is one Log and one divide.
var logGrowth = math.Log(histGrowth)

// Histogram is a fixed-memory streaming histogram over non-negative
// float64 observations, safe for concurrent use. It tracks count, sum,
// exact min/max, and geometric buckets from which quantiles are estimated
// (25% relative resolution; exact for the min and max themselves). All
// write methods are no-ops on a nil receiver or while the owning registry
// is disabled.
type Histogram struct {
	reg       *Registry
	count     atomic.Uint64
	sumBits   atomic.Uint64 // float64 bits, CAS-accumulated
	minBits   atomic.Uint64 // float64 bits; +Inf when empty
	maxBits   atomic.Uint64 // float64 bits; -Inf when empty
	buckets   [histBuckets]atomic.Uint64
	exemplars [histBuckets]atomic.Pointer[Exemplar]
}

// Exemplar links one histogram bucket back to a concrete traced request:
// the most recent sampled observation that landed in the bucket, with the
// trace ID to look it up in the trace JSONL (cmd/tracetool) and the
// observation it stands for. Exposed in both the JSON snapshot and the
// `# {trace_id=...}` suffix of the OpenMetrics exposition
// (WriteOpenMetrics; the text 0.0.4 rendering has no exemplar syntax).
type Exemplar struct {
	// TraceID is the trace the observation belongs to.
	TraceID string `json:"trace_id"`
	// Value is the observed value, in the metric's unit.
	Value float64 `json:"value"`
	// UnixNano is when the observation was recorded.
	UnixNano int64 `json:"unix_nano"`
}

func newHistogram(r *Registry) *Histogram {
	h := &Histogram{reg: r}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// reset zeroes the histogram in place (Registry.Reset).
func (h *Histogram) reset() {
	h.count.Store(0)
	h.sumBits.Store(0)
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	for i := range h.buckets {
		h.buckets[i].Store(0)
		h.exemplars[i].Store(nil)
	}
}

// bucketIndex maps an observation to its bucket.
func bucketIndex(v float64) int {
	if v <= histMin {
		return 0
	}
	idx := int(math.Log(v/histMin) / logGrowth)
	if idx < 0 {
		idx = 0
	}
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// bucketUpper is the upper bound of bucket i (the quantile representative:
// estimates err high, never low, within one bucket).
func bucketUpper(i int) float64 {
	return histMin * math.Pow(histGrowth, float64(i+1))
}

// Observe records one value. Negative values clamp to zero; NaN is
// dropped.
func (h *Histogram) Observe(v float64) {
	h.observe(v, "")
}

// ObserveWithExemplar records one value and retains traceID as the
// exemplar of the bucket the value lands in (last writer wins), so the
// bucket's tail can be traced back to a concrete request. An empty
// traceID degrades to a plain Observe.
func (h *Histogram) ObserveWithExemplar(v float64, traceID string) {
	h.observe(v, traceID)
}

func (h *Histogram) observe(v float64, traceID string) {
	if h == nil || !h.reg.on() || math.IsNaN(v) {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	idx := bucketIndex(v)
	h.buckets[idx].Add(1)
	if traceID != "" {
		h.exemplars[idx].Store(&Exemplar{TraceID: traceID, Value: v, UnixNano: time.Now().UnixNano()})
	}
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) {
			break
		}
		if h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Sum returns the running total of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// quantile estimates the q-th quantile (0 < q <= 1) by nearest rank over
// the buckets, clamped into the exact observed [min, max] range — so a
// single-observation histogram reports that observation exactly. Returns 0
// on an empty histogram.
func (h *Histogram) quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	est := bucketUpper(histBuckets - 1)
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			est = bucketUpper(i)
			break
		}
	}
	lo := math.Float64frombits(h.minBits.Load())
	hi := math.Float64frombits(h.maxBits.Load())
	return math.Min(math.Max(est, lo), hi)
}

// bucketCounts copies the raw per-bucket observation counts — the input
// of the cumulative Prometheus _bucket series (prometheus.go). The copy
// is a best-effort cut under concurrent writes, like Snapshot.
func (h *Histogram) bucketCounts() [histBuckets]uint64 {
	var counts [histBuckets]uint64
	if h == nil {
		return counts
	}
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return counts
}

// BucketSnapshot is one occupied histogram bucket in a snapshot: its
// inclusive upper bound (the geometric boundary, so consumers can
// reconstruct the distribution without reading the Go source), its raw
// (non-cumulative) count, and — when a traced observation landed in it —
// the most recent exemplar.
type BucketSnapshot struct {
	// LE is the bucket's inclusive upper bound, in the metric's unit.
	LE float64 `json:"le"`
	// Count is the number of observations in this bucket (not
	// cumulative).
	Count uint64 `json:"count"`
	// Exemplar is the most recent sampled traced observation in the
	// bucket, if any.
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// HistogramSnapshot is the JSON form of a histogram: count, sum, exact
// min/max, the estimated 50th/95th/99th percentiles in the metric's
// observation unit, and the occupied buckets with their boundaries and
// exemplars.
type HistogramSnapshot struct {
	// Count is the number of observations recorded.
	Count uint64 `json:"count"`
	// Sum is the exact running total of all observed values.
	Sum float64 `json:"sum"`
	// Min and Max are the exact extremes observed (not bucket bounds).
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// P50, P95 and P99 are nearest-rank quantile estimates at bucket
	// resolution (~25% relative error), clamped into [Min, Max].
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	// Buckets lists every occupied bucket in ascending boundary order.
	// Counts are per-bucket, not cumulative; summed they equal Count (up
	// to a best-effort cut under concurrent writers).
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state. An empty histogram
// reports all-zero fields.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil || h.count.Load() == 0 {
		return HistogramSnapshot{}
	}
	counts := h.bucketCounts()
	var buckets []BucketSnapshot
	for i, c := range counts {
		if c == 0 {
			continue
		}
		buckets = append(buckets, BucketSnapshot{
			LE:       bucketUpper(i),
			Count:    c,
			Exemplar: h.exemplars[i].Load(),
		})
	}
	return HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.Sum(),
		Min:     math.Float64frombits(h.minBits.Load()),
		Max:     math.Float64frombits(h.maxBits.Load()),
		P50:     h.quantile(0.50),
		P95:     h.quantile(0.95),
		P99:     h.quantile(0.99),
		Buckets: buckets,
	}
}
