package core

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/matching"
	"github.com/defender-game/defender/internal/obs"
)

// MaxTupleLoad micro-benchmarks for `make bench-kernel`: the general-case
// branch-and-bound search is the most expensive exact path in the
// verifier, so it is pinned here on an instance that defeats both
// structural shortcuts and the exhaustive enumerator.

// bnbInstance is a deterministic mid-size instance that must go through
// maxLoadBranchBound: dependent non-uniform loads and C(m, k) well beyond
// the exhaustive limit.
func bnbInstance(tb testing.TB) (*graph.Graph, int, []*big.Rat) {
	tb.Helper()
	g := graph.RandomConnected(40, 0.1, 7)
	m := g.NumEdges()
	k := 6
	// If the instance is small enough to enumerate, grow k until the
	// general branch-and-bound path is forced.
	for combinationsWithin(m, k, exhaustiveTupleLimit) && k < m {
		k++
	}
	loads := make([]*big.Rat, g.NumVertices())
	for v := range loads {
		loads[v] = new(big.Rat)
	}
	// Load a connected cluster (dependent ⇒ not the independent-set case)
	// with distinct fractions (⇒ not the uniform case).
	e := g.EdgeByID(0)
	loads[e.U] = big.NewRat(1, 2)
	loads[e.V] = big.NewRat(1, 3)
	for i, v := range g.Neighbors(e.U) {
		loads[v] = big.NewRat(1, int64(4+i))
	}
	for i, v := range g.Neighbors(e.V) {
		if loads[v].Sign() == 0 {
			loads[v] = big.NewRat(1, int64(11+i))
		}
	}
	if independentInGraph(g, positiveVertices(loads)) {
		tb.Fatal("bench premise: loads must be dependent")
	}
	return g, k, loads
}

// positiveVertices lists the vertices with positive load.
func positiveVertices(loads []*big.Rat) []int {
	var out []int
	for v, l := range loads {
		if l.Sign() > 0 {
			out = append(out, v)
		}
	}
	return out
}

// BenchmarkMaxTupleLoadBranchBound measures the budgeted exact search on
// the general-loads path (neither independent nor uniform, m ≈ 80, k=6).
func BenchmarkMaxTupleLoadBranchBound(b *testing.B) {
	g, k, loads := bnbInstance(b)
	if combinationsWithin(g.NumEdges(), k, exhaustiveTupleLimit) {
		b.Fatalf("bench premise: C(%d,%d) within exhaustive limit", g.NumEdges(), k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		value, _, err := MaxTupleLoad(g, k, loads)
		if err != nil {
			b.Fatal(err)
		}
		if value.Sign() <= 0 {
			b.Fatal("expected positive maximum load")
		}
	}
}

// BenchmarkMaxTupleLoadExhaustive measures the dense enumeration path on
// a small instance (C(m, k) ≈ 300k subsets).
func BenchmarkMaxTupleLoadExhaustive(b *testing.B) {
	g := graph.Complete(10) // m = 45
	k := 4                  // C(45,4) = 148995
	loads := make([]*big.Rat, g.NumVertices())
	for v := range loads {
		loads[v] = big.NewRat(int64(1+v%4), int64(2+v%3))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		value, _, err := maxLoadExhaustive(g, k, loads)
		if err != nil {
			b.Fatal(err)
		}
		if value.Sign() <= 0 {
			b.Fatal("expected positive maximum load")
		}
	}
}

// BenchmarkGameValue measures the exact LP oracle end to end — tuple
// enumeration, payoff build, revised simplex — on the serve-lp stratum
// shapes that set its median (grid-3x5/k=2, grid-2x5/k=3, cycle-13/k=3)
// and on C31/k=3 (4,495 tuples), the largest cycle LP the tests solve.
// pivots/op reads lp.simplex.pivots, so the registry is enabled for the
// run.
func BenchmarkGameValue(b *testing.B) {
	reg := obs.Default()
	was := reg.Enabled()
	reg.SetEnabled(true)
	b.Cleanup(func() { reg.SetEnabled(was) })
	pivots := reg.Counter("lp.simplex.pivots")
	for _, bc := range []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"grid-3x5/k=2", graph.Grid(3, 5), 2},
		{"grid-2x5/k=3", graph.Grid(2, 5), 3},
		{"cycle-13/k=3", graph.Cycle(13), 3},
		{"C31/k=3", graph.Cycle(31), 3},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			before := pivots.Value()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := GameValue(bc.g, bc.k); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pivots.Value()-before)/float64(b.N), "pivots/op")
		})
	}
}

// matchedGraph is a random graph on n vertices (n even) with m edges that
// holds the perfect matching {2i, 2i+1} and the triangle 0-1-2, so it is
// not bipartite and SolveAny answers it with the perfect-matching family:
// the shape of serve-large's "matched" requests.
func matchedGraph(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	add := func(u, v int) {
		if u != v && !g.HasEdge(u, v) {
			if err := g.AddEdge(u, v); err != nil {
				panic(err)
			}
		}
	}
	for v := 0; v < n; v += 2 {
		add(v, v+1)
	}
	add(1, 2)
	add(0, 2)
	for g.NumEdges() < m {
		add(rng.Intn(n), rng.Intn(n))
	}
	return g
}

// BenchmarkSolveAnyFromMatching measures a defenderd cache miss's
// structured solve past the blossom matching, at the server's 256-vertex
// cap: partition, Algorithm A_tuple and every exact check on the
// k-matching family (a grid and a tree), and the perfect-matching family
// on a non-bipartite graph.
func BenchmarkSolveAnyFromMatching(b *testing.B) {
	for _, bc := range []struct {
		name   string
		g      *graph.Graph
		k, nu  int
		family string
	}{
		{"grid-8x32/k=4", graph.Grid(8, 32), 4, 2, "k-matching"},
		{"tree-256/k=5", graph.NewSeededGenerator(7).Tree(256), 5, 2, "k-matching"},
		{"matched-256/k=6", matchedGraph(256, 768, 7), 6, 2, "perfect-matching"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			mate := matching.Maximum(bc.g)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, family, err := SolveAnyFromMatchingCtx(ctx, bc.g, mate, bc.nu, bc.k)
				if err != nil {
					b.Fatal(err)
				}
				if family != bc.family {
					b.Fatalf("family %q, want %q", family, bc.family)
				}
			}
		})
	}
}
