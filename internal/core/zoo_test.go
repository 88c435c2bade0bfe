package core

import (
	"errors"
	"math/big"
	"sort"
	"testing"

	"github.com/defender-game/defender/internal/cover"
	"github.com/defender-game/defender/internal/graph"
)

// TestEquilibriumZoo is the wide-sweep integration test: for every graph
// in the zoo and every feasible k (capped for the exhaustive verifier),
// solve, then check every property the paper promises about the result in
// one place. This is deliberately redundant with the focused tests — its
// job is to catch cross-cutting regressions.
func TestEquilibriumZoo(t *testing.T) {
	zoo := []struct {
		name string
		g    *graph.Graph
	}{
		{"K2", graph.Path(2)},
		{"P3", graph.Path(3)},
		{"P6", graph.Path(6)},
		{"P9", graph.Path(9)},
		{"C4", graph.Cycle(4)},
		{"C8", graph.Cycle(8)},
		{"C14", graph.Cycle(14)},
		{"star4", graph.Star(4)},
		{"star11", graph.Star(11)},
		{"K23", graph.CompleteBipartite(2, 3)},
		{"K35", graph.CompleteBipartite(3, 5)},
		{"K44", graph.CompleteBipartite(4, 4)},
		{"grid25", graph.Grid(2, 5)},
		{"grid33", graph.Grid(3, 3)},
		{"ladder5", graph.Ladder(5)},
		{"Q3", graph.Hypercube(3)},
		{"Q4", graph.Hypercube(4)},
		{"tree15", graph.RandomTree(15, 5)},
		{"tree31", graph.CompleteBinaryTree(5)},
		{"caterpillar52", graph.Caterpillar(5, 2)},
		{"bip57", graph.RandomBipartite(5, 7, 0.35, 9)},
		{"bull", bullGraph(t)},
	}
	const nu = 5
	for _, z := range zoo {
		z := z
		t.Run(z.name, func(t *testing.T) {
			p, err := cover.FindNEPartition(z.g)
			if err != nil {
				t.Fatalf("partition: %v", err)
			}
			maxK := len(p.IS)
			if maxK > 5 {
				maxK = 5
			}
			edgeNE, err := AlgorithmA(z.g, nu, p)
			if err != nil {
				t.Fatalf("algorithm A: %v", err)
			}
			gain1 := edgeNE.DefenderGain()

			for k := 1; k <= maxK; k++ {
				ne, err := AlgorithmATuple(z.g, nu, k, p)
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				// (1) Exact Nash equilibrium, both routes.
				if err := VerifyNE(ne.Game, ne.Profile); err != nil {
					t.Fatalf("k=%d: VerifyNE: %v", k, err)
				}
				if err := VerifyCharacterization(ne.Game, ne.Profile); err != nil {
					t.Fatalf("k=%d: VerifyCharacterization: %v", k, err)
				}
				// (2) k-matching configuration shape.
				if err := CheckKMatchingConfiguration(ne.Game, ne.Profile); err != nil {
					t.Fatalf("k=%d: configuration: %v", k, err)
				}
				// (3) Support bookkeeping: sorted, independent, sized |IS|.
				if !sort.IntsAreSorted(ne.VPSupport) {
					t.Fatalf("k=%d: VP support unsorted", k)
				}
				if !cover.IsIndependentSet(z.g, ne.VPSupport) {
					t.Fatalf("k=%d: VP support not independent", k)
				}
				if len(ne.EdgeSupport) != len(ne.VPSupport) {
					t.Fatalf("k=%d: |EC|=%d != |IS|=%d", k, len(ne.EdgeSupport), len(ne.VPSupport))
				}
				// (4) δ = |EC|/gcd(|EC|,k) tuples, equal multiplicity.
				wantDelta := len(ne.EdgeSupport) / gcd(len(ne.EdgeSupport), k)
				if len(ne.Tuples) != wantDelta {
					t.Fatalf("k=%d: δ=%d, want %d", k, len(ne.Tuples), wantDelta)
				}
				// (5) Gain linearity and closed forms.
				wantGain := new(big.Rat).Mul(gain1, big.NewRat(int64(k), 1))
				if ne.DefenderGain().Cmp(wantGain) != 0 {
					t.Fatalf("k=%d: gain %v, want %v", k, ne.DefenderGain(), wantGain)
				}
				closed := big.NewRat(int64(k)*int64(nu), int64(len(ne.VPSupport)))
				if ne.DefenderGain().Cmp(closed) != 0 {
					t.Fatalf("k=%d: gain %v, closed form %v", k, ne.DefenderGain(), closed)
				}
				// (6) Metrics consistency.
				total := new(big.Rat).Add(ne.DefenderGain(), ne.Escapes())
				if total.Cmp(big.NewRat(int64(nu), 1)) != 0 {
					t.Fatalf("k=%d: gain+escapes=%v", k, total)
				}
				// (7) Round trip through the Edge model.
				back, err := ReduceToEdgeModel(ne)
				if err != nil {
					t.Fatalf("k=%d: reduce: %v", k, err)
				}
				if back.DefenderGain().Cmp(gain1) != 0 {
					t.Fatalf("k=%d: reduced gain %v, want %v", k, back.DefenderGain(), gain1)
				}
			}
		})
	}
}

// bullGraph: triangle with two horns — the non-bipartite zoo member that
// still admits a matching partition.
func bullGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {0, 3}, {1, 4}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestZooNonAdmitting sweeps the families proven NOT to admit k-matching
// equilibria and confirms both the partition search and the solver agree.
func TestZooNonAdmitting(t *testing.T) {
	zoo := []struct {
		name string
		g    *graph.Graph
	}{
		{"C3", graph.Cycle(3)},
		{"C5", graph.Cycle(5)},
		{"C9", graph.Cycle(9)},
		{"K4", graph.Complete(4)},
		{"K7", graph.Complete(7)},
		{"petersen", graph.Petersen()},
		{"wheel6", graph.Wheel(6)},
	}
	for _, z := range zoo {
		z := z
		t.Run(z.name, func(t *testing.T) {
			if _, err := cover.FindNEPartition(z.g); !errors.Is(err, cover.ErrNoPartition) {
				t.Fatalf("partition err = %v, want ErrNoPartition", err)
			}
			if _, err := SolveTupleModel(z.g, 2, 1); !errors.Is(err, ErrNoMatchingNE) {
				t.Fatalf("solver err = %v, want ErrNoMatchingNE", err)
			}
		})
	}
}

// TestZooWheelHasNoPartition double-checks the wheel claim used above: the
// hub is adjacent to everything, so IS ⊆ rim; rim vertices adjacent in a
// cycle; any IS misses the hub's cover requirement... verified by brute
// force for small wheels.
func TestZooWheelHasNoPartition(t *testing.T) {
	for _, n := range []int{5, 6, 7, 8} {
		g := graph.Wheel(n)
		if count, err := cover.CountNEPartitions(g); err != nil || count != 0 {
			t.Errorf("W%d: %d partitions (err %v), want 0", n, count, err)
		}
		if _, err := cover.FindNEPartition(g); !errors.Is(err, cover.ErrNoPartition) {
			t.Errorf("W%d: err = %v, want ErrNoPartition", n, err)
		}
	}
}
