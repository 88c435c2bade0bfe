package core

import (
	"errors"
	"math/big"
	"testing"

	"github.com/defender-game/defender/internal/cover"
	"github.com/defender-game/defender/internal/graph"
)

// bipartiteFamilies is the shared stable of graphs used across the
// equilibrium tests — all admit matching equilibria via the König route.
func bipartiteFamilies(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	return map[string]*graph.Graph{
		"K2":        graph.Path(2),
		"path5":     graph.Path(5),
		"path8":     graph.Path(8),
		"C6":        graph.Cycle(6),
		"C10":       graph.Cycle(10),
		"star9":     graph.Star(9),
		"K34":       graph.CompleteBipartite(3, 4),
		"K55":       graph.CompleteBipartite(5, 5),
		"grid34":    graph.Grid(3, 4),
		"hypercube": graph.Hypercube(3),
		"tree20":    graph.RandomTree(20, 7),
		"randbip":   graph.RandomBipartite(6, 9, 0.3, 11),
	}
}

func TestAlgorithmAOnBipartiteFamilies(t *testing.T) {
	for name, g := range bipartiteFamilies(t) {
		t.Run(name, func(t *testing.T) {
			p, err := cover.FindNEPartition(g)
			if err != nil {
				t.Fatalf("partition: %v", err)
			}
			ne, err := AlgorithmA(g, 3, p)
			if err != nil {
				t.Fatalf("AlgorithmA: %v", err)
			}
			// The real test: the produced profile is an exact NE.
			if err := VerifyNE(ne.Game, ne.Profile); err != nil {
				t.Fatalf("not a NE: %v", err)
			}
			if err := VerifyCharacterization(ne.Game, ne.Profile); err != nil {
				t.Fatalf("characterization fails: %v", err)
			}
			// Matching-configuration shape (Definition 2.2 via the k=1
			// specialization of Definition 4.1, Observation 4.1).
			if err := CheckKMatchingConfiguration(ne.Game, ne.Profile); err != nil {
				t.Fatalf("not a matching configuration: %v", err)
			}
			// |EC| = |IS| (each IS vertex on exactly one support edge).
			if len(ne.EdgeSupport) != len(ne.VPSupport) {
				t.Errorf("|EC| = %d, |IS| = %d", len(ne.EdgeSupport), len(ne.VPSupport))
			}
			// Gain formula ν/|IS| (equation (11)).
			want := big.NewRat(int64(ne.Game.Attackers()), int64(len(ne.VPSupport)))
			if got := ne.DefenderGain(); got.Cmp(want) != 0 {
				t.Errorf("gain = %v, want %v", got, want)
			}
		})
	}
}

func TestAlgorithmARejectsBadPartition(t *testing.T) {
	g := graph.Cycle(4)
	if _, err := AlgorithmA(g, 1, cover.Partition{IS: []int{0, 1}, VC: []int{2, 3}}); err == nil {
		t.Error("adjacent IS must be rejected")
	}
	if _, err := AlgorithmA(g, 1, cover.Partition{IS: []int{0}, VC: []int{1, 2, 3}}); err == nil {
		t.Error("non-expander partition must be rejected")
	}
}

func TestAlgorithmAIgnoresStaleRep(t *testing.T) {
	// A partition whose Rep is nil forces recomputation of the SDR.
	g := graph.Cycle(6)
	p := cover.Partition{IS: []int{0, 2, 4}, VC: []int{1, 3, 5}}
	ne, err := AlgorithmA(g, 2, p)
	if err != nil {
		t.Fatalf("AlgorithmA: %v", err)
	}
	if err := VerifyNE(ne.Game, ne.Profile); err != nil {
		t.Fatal(err)
	}
}

func TestSolveEdgeModel(t *testing.T) {
	// Bipartite route.
	ne, err := SolveEdgeModel(graph.Grid(3, 3), 5)
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	if err := VerifyNE(ne.Game, ne.Profile); err != nil {
		t.Fatal(err)
	}
	// Proven non-existence (K4 has no IS/expander partition).
	if _, err := SolveEdgeModel(graph.Complete(4), 1); !errors.Is(err, ErrNoMatchingNE) {
		t.Errorf("K4: err = %v, want ErrNoMatchingNE", err)
	}
	// Odd cycles likewise.
	if _, err := SolveEdgeModel(graph.Cycle(7), 1); !errors.Is(err, ErrNoMatchingNE) {
		t.Errorf("C7: err = %v, want ErrNoMatchingNE", err)
	}
}

func TestSolveEdgeModelNonBipartitePositive(t *testing.T) {
	// Triangle with pendants on two corners admits a matching NE:
	// IS = {3, 4, 2}? No — 2 is adjacent to both corners... the exact
	// search will find whatever works; just verify the output.
	g := graph.New(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {0, 3}, {1, 4}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	ne, err := SolveEdgeModel(g, 2)
	if err != nil {
		t.Fatalf("SolveEdgeModel: %v", err)
	}
	if err := VerifyNE(ne.Game, ne.Profile); err != nil {
		t.Fatal(err)
	}
	if !cover.IsIndependentSet(g, ne.VPSupport) {
		t.Error("support must be independent")
	}
}

func TestMatchingNEUniformHitOnSupport(t *testing.T) {
	// Claims 4.3/4.4 at k=1: support vertices are hit with probability
	// 1/|EC|, all others at least that.
	g := graph.CompleteBipartite(2, 5)
	ne, err := SolveEdgeModel(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	hit := ne.Game.HitProbabilities(ne.Profile)
	want := big.NewRat(1, int64(len(ne.EdgeSupport)))
	for _, v := range ne.VPSupport {
		if hit[v].Cmp(want) != 0 {
			t.Errorf("Hit(%d) = %v, want %v", v, hit[v], want)
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		if hit[v].Cmp(want) < 0 {
			t.Errorf("Hit(%d) = %v below support level %v", v, hit[v], want)
		}
	}
}
