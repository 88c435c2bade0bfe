package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// a p99 over 300 samples would rest on three observations, so the tail
// falls back to the highest percentile with at least ten beyond it.
const minBeyond = 10

// nearestRank returns the nearest-rank q-quantile (0 < q <= 1) of sorted,
// which must be ascending and non-empty: the ceil(q·n)-th smallest sample.
func nearestRank(sorted []float64, q float64) float64 {
	r := int(math.Ceil(q * float64(len(sorted))))
	r = min(max(r, 1), len(sorted))
	return sorted[r-1]
}

// tailStat is a tail percentile together with the percentile it really is.
type tailStat struct {
	Value  float64 // the sample at that rank
	Q      float64 // the percentile reported, as a fraction
	Beyond int     // samples strictly above the rank
}

// tail returns the nearest-rank q-quantile of sorted when at least
// minBeyond samples lie beyond it, else the highest percentile that has
// minBeyond beyond it. With minBeyond or fewer samples no percentile
// qualifies and the maximum is returned (Q = 1, Beyond = 0): the worst
// observation is the only honest tail of a handful of samples.
func tail(sorted []float64, q float64) tailStat {
	n := len(sorted)
	r := int(math.Ceil(q * float64(n)))
	r = min(max(r, 1), n)
	if n-r < minBeyond {
		r = n - minBeyond
	}
	if r < 1 {
		return tailStat{Value: sorted[n-1], Q: 1}
	}
	return tailStat{Value: sorted[r-1], Q: float64(r) / float64(n), Beyond: n - r}
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank p50 of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return nearestRank(sortedCopy(xs), 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
