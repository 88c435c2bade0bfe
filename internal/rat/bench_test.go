package rat

import (
	"math/big"
	"testing"
)

// The kernel micro-benchmarks, consumed by `make bench-kernel` through
// cmd/benchkernel: each op benchmark has a big.Rat twin with the same
// workload so the fast-path speedup is directly visible in one run.

// workload is a fixed cycle of small fractions shaped like the solver's
// values (probabilities 1/|M|, loads ν/(2k), pivot ratios).
var workload = [][2]int64{
	{1, 3}, {2, 7}, {-5, 12}, {7, 24}, {1, 60}, {-11, 30}, {13, 8}, {3, 40},
}

func BenchmarkAddSmall(b *testing.B) {
	var acc, term Rat
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := workload[i%len(workload)]
		term.SetFrac64(w[0], w[1])
		acc.Add(&acc, &term)
	}
}

func BenchmarkAddBigRat(b *testing.B) {
	acc := new(big.Rat)
	term := new(big.Rat)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := workload[i%len(workload)]
		term.SetFrac64(w[0], w[1])
		acc.Add(acc, term)
	}
}

func BenchmarkMulSmall(b *testing.B) {
	var acc, term Rat
	acc.SetFrac64(355, 113)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := workload[i%len(workload)]
		term.SetFrac64(w[0], w[1])
		acc.Mul(&acc, &term)
		if acc.isBig() {
			acc.SetFrac64(355, 113) // keep the loop on the fast path
		}
	}
}

func BenchmarkMulBigRat(b *testing.B) {
	acc := big.NewRat(355, 113)
	term := new(big.Rat)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := workload[i%len(workload)]
		term.SetFrac64(w[0], w[1])
		acc.Mul(acc, term)
		if acc.Num().BitLen() > 62 || acc.Denom().BitLen() > 62 {
			acc.SetFrac64(355, 113)
		}
	}
}

func BenchmarkCmpSmall(b *testing.B) {
	var x, y Rat
	x.SetFrac64(7919, 7907)
	y.SetFrac64(7907, 7901)
	sink := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink += x.Cmp(&y)
	}
	if sink <= 0 {
		b.Fatal("comparison produced the wrong sign")
	}
}

func BenchmarkCmpBigRat(b *testing.B) {
	x := big.NewRat(7919, 7907)
	y := big.NewRat(7907, 7901)
	sink := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink += x.Cmp(y)
	}
	if sink <= 0 {
		b.Fatal("comparison produced the wrong sign")
	}
}

// BenchmarkVecAccumulate is the vertex-load accumulation shape: scatter
// adds into a dense vector with zero allocations per element.
func BenchmarkVecAccumulate(b *testing.B) {
	v := NewVec(64)
	var term Rat
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := workload[i%len(workload)]
		term.SetFrac64(w[0], w[1])
		slot := &v[i%len(v)]
		slot.Add(slot, &term)
	}
}
