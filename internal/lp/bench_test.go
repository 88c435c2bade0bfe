package lp

import (
	"math/big"
	"testing"
)

// The simplex micro-benchmarks behind `make bench-kernel` and the CI
// kernel perf gate (cmd/benchkernel → cmd/benchdiff). The pivot loop is
// the honest cost unit of the exact solver — each pivot is a Θ(m²)
// basis-inverse update plus one pricing sweep — so these drive
// pivot-heavy programs with the rational entry shapes the game
// reductions produce.

// denseProgram builds a deterministic dense LP with fractional
// coefficients: max Σx s.t. a_ij = (1 + ((i·cols+j) mod 7)) / (1 + ((i+j) mod 5)),
// b_i = i+1. Feasible and bounded, and the fractions force nontrivial
// rational pivots.
func denseProgram(rows, cols int) (c []*big.Rat, a [][]*big.Rat, b []*big.Rat) {
	c = make([]*big.Rat, cols)
	for j := range c {
		c[j] = big.NewRat(1, 1)
	}
	a = make([][]*big.Rat, rows)
	for i := range a {
		a[i] = make([]*big.Rat, cols)
		for j := range a[i] {
			a[i][j] = big.NewRat(int64(1+(i*cols+j)%7), int64(1+(i+j)%5))
		}
	}
	b = make([]*big.Rat, rows)
	for i := range b {
		b[i] = big.NewRat(int64(i+1), 1)
	}
	return c, a, b
}

// BenchmarkSimplexPivotDense measures a full phase-two solve of a dense
// 24x24 program — dominated by Gauss–Jordan pivot sweeps.
func BenchmarkSimplexPivotDense(b *testing.B) {
	c, a, bounds := denseProgram(24, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := Maximize(c, a, bounds)
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != Optimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

// BenchmarkSimplexPhaseOne forces the phase-one start by negating
// half of the bounds, exercising the two-objective pivot path.
func BenchmarkSimplexPhaseOne(b *testing.B) {
	c, a, bounds := denseProgram(18, 18)
	for i := range bounds {
		if i%2 == 1 {
			// x >= small positive amounts: -Σ_j a_ij x_j <= -(i+1)/8.
			for j := range a[i] {
				a[i][j] = new(big.Rat).Neg(a[i][j])
			}
			bounds[i] = big.NewRat(-int64(i+1), 8)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := Maximize(c, a, bounds)
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != Optimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

// BenchmarkSolveZeroSumOracle runs the end-to-end zero-sum oracle on a
// structured 16x16 payoff matrix — the LP workload the experiments'
// value cross-checks actually issue.
func BenchmarkSolveZeroSumOracle(b *testing.B) {
	n := 16
	m := make([][]*big.Rat, n)
	for i := range m {
		m[i] = make([]*big.Rat, n)
		for j := range m[i] {
			m[i][j] = big.NewRat(int64((i*j)%5-2), int64(1+(i+j)%4))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveZeroSum(m); err != nil {
			b.Fatal(err)
		}
	}
}
