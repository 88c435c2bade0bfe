package benchrec

import "sort"

// Aggregate folds repeated timing samples of one table (one entry per
// -bench-repeat pass, all describing the same experiment) into a single
// robust record:
//
//   - WallMS is the minimum across samples. The minimum is the
//     least-interfered-with run — scheduler noise, cache cold-start and
//     background load only ever add time — so it is the stable choice
//     for a longitudinal baseline.
//   - CellsPerSec is recomputed as Cells over that minimum wall time.
//   - The latency percentiles (p50/p95/p99) and max are the median
//     across samples of each per-sample statistic, discarding a single
//     outlier pass without letting it dominate.
//
// Identity fields (ID, Rows, Cells, CellTiming) are taken from the first
// sample; the suite is deterministic for a fixed Config, so they agree
// across passes. Aggregate panics on an empty slice — callers always
// have at least one pass.
func Aggregate(samples []Table) Table {
	if len(samples) == 0 {
		// lint:invariant(nakedpanic): every caller aggregates at least one repeat pass
		panic("benchrec: Aggregate of zero samples")
	}
	agg := samples[0]
	agg.Samples = len(samples)
	if len(samples) == 1 {
		return agg
	}
	walls := make([]float64, len(samples))
	p50s := make([]float64, len(samples))
	p95s := make([]float64, len(samples))
	p99s := make([]float64, len(samples))
	maxes := make([]float64, len(samples))
	for i, s := range samples {
		walls[i] = s.WallMS
		p50s[i] = s.CellP50MS
		p95s[i] = s.CellP95MS
		p99s[i] = s.CellP99MS
		maxes[i] = s.CellMaxMS
	}
	agg.WallMS = min64(walls)
	agg.CellsPerSec = 0
	if agg.CellTiming && agg.WallMS > 0 {
		agg.CellsPerSec = float64(agg.Cells) / (agg.WallMS / 1e3)
	}
	agg.CellP50MS = median(p50s)
	agg.CellP95MS = median(p95s)
	agg.CellP99MS = median(p99s)
	agg.CellMaxMS = median(maxes)
	return agg
}

func min64(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// median returns the standard sample median (mean of the two middle
// order statistics for even n).
func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
