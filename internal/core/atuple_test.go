package core

import (
	"errors"
	"math/big"
	"testing"

	"github.com/defender-game/defender/internal/cover"
	"github.com/defender-game/defender/internal/graph"
)

func TestAlgorithmATupleAcrossK(t *testing.T) {
	// The paper's main pipeline: for every family and every feasible k,
	// A_tuple must output an exact k-matching Nash equilibrium.
	for name, g := range bipartiteFamilies(t) {
		t.Run(name, func(t *testing.T) {
			p, err := cover.FindNEPartition(g)
			if err != nil {
				t.Fatalf("partition: %v", err)
			}
			maxK := len(p.IS)
			if maxK > 6 {
				maxK = 6 // keep exhaustive verification honest but fast
			}
			for k := 1; k <= maxK; k++ {
				ne, err := AlgorithmATuple(g, 4, k, p)
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				if err := VerifyNE(ne.Game, ne.Profile); err != nil {
					t.Fatalf("k=%d: not a NE: %v", k, err)
				}
				if err := CheckKMatchingConfiguration(ne.Game, ne.Profile); err != nil {
					t.Fatalf("k=%d: not a k-matching configuration: %v", k, err)
				}
				// Gain formula k·ν/|IS| (equation (12)).
				want := big.NewRat(int64(k)*4, int64(len(ne.VPSupport)))
				if got := ne.DefenderGain(); got.Cmp(want) != 0 {
					t.Fatalf("k=%d: gain %v, want %v", k, got, want)
				}
				// Hit probability k/|EC| (Claim 4.3).
				wantHit := big.NewRat(int64(k), int64(len(ne.EdgeSupport)))
				if got := ne.HitProbability(); got.Cmp(wantHit) != 0 {
					t.Fatalf("k=%d: hit %v, want %v", k, got, wantHit)
				}
			}
		})
	}
}

func TestAlgorithmATupleKTooLarge(t *testing.T) {
	g := graph.Path(2) // |IS| = 1, only one support edge
	p, err := cover.FindNEPartition(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AlgorithmATuple(g, 1, 2, p); err == nil {
		t.Error("k > |EC| must fail")
	}
}

func TestSolveTupleModelEndToEnd(t *testing.T) {
	g := graph.Grid(3, 4)
	ne, err := SolveTupleModel(g, 6, 3)
	if err != nil {
		t.Fatalf("SolveTupleModel: %v", err)
	}
	if err := VerifyCharacterization(ne.Game, ne.Profile); err != nil {
		t.Fatal(err)
	}
	if _, err := SolveTupleModel(graph.Complete(5), 2, 2); !errors.Is(err, ErrNoMatchingNE) {
		t.Errorf("K5: err = %v, want ErrNoMatchingNE", err)
	}
}

func TestSolveTupleModelGainLinearInK(t *testing.T) {
	// The headline theorem made concrete: gain(k) = k * gain(1).
	g := graph.CompleteBipartite(4, 6)
	base, err := SolveTupleModel(g, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	g1 := base.DefenderGain()
	for k := 2; k <= 6; k++ {
		ne, err := SolveTupleModel(g, 12, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		want := new(big.Rat).Mul(g1, big.NewRat(int64(k), 1))
		if got := ne.DefenderGain(); got.Cmp(want) != 0 {
			t.Errorf("k=%d: gain %v, want %v = k·gain(1)", k, got, want)
		}
	}
}

// TestAdmitsKMatchingNE checks the Corollary 4.11 decision end to end:
// a partition exists iff SolveTupleModel builds a k-matching NE.
func TestAdmitsKMatchingNE(t *testing.T) {
	if _, err := cover.FindNEPartition(graph.Grid(4, 4)); err != nil {
		t.Errorf("grid must admit: %v", err)
	}
	if _, err := SolveTupleModel(graph.Grid(4, 4), 2, 2); err != nil {
		t.Errorf("grid: %v", err)
	}
	if _, err := SolveTupleModel(graph.Cycle(9), 2, 1); !errors.Is(err, ErrNoMatchingNE) {
		t.Errorf("C9: err = %v, want ErrNoMatchingNE", err)
	}
	if _, err := SolveTupleModel(graph.Petersen(), 2, 1); !errors.Is(err, ErrNoMatchingNE) {
		t.Errorf("petersen admits no partition (ν = 5 < τ = 6): err = %v", err)
	}
}

// TestOddCycleBeyondEnumerationRefuted: an odd cycle too long for an
// exhaustive search is still refuted exactly, by the König–Egerváry
// route.
func TestOddCycleBeyondEnumerationRefuted(t *testing.T) {
	g := graph.Cycle(31)
	if _, err := cover.FindNEPartition(g); !errors.Is(err, cover.ErrNoPartition) {
		t.Errorf("FindNEPartition: err = %v, want ErrNoPartition", err)
	}
	if _, err := SolveTupleModel(g, 2, 1); !errors.Is(err, ErrNoMatchingNE) {
		t.Errorf("SolveTupleModel: err = %v, want ErrNoMatchingNE", err)
	}
}

// TestTheorem34EquivalenceOnEquilibria: for constructed equilibria the
// direct best-response verification and the Theorem 3.4 characterization
// agree (that is the theorem's content).
func TestTheorem34EquivalenceOnEquilibria(t *testing.T) {
	for name, g := range bipartiteFamilies(t) {
		t.Run(name, func(t *testing.T) {
			ne, err := SolveTupleModel(g, 3, 2)
			if errors.Is(err, ErrKTooLarge) {
				return // |IS| = 1 families cannot host k=2
			}
			if err != nil {
				t.Fatalf("solve: %v", err)
			}
			if err := VerifyNE(ne.Game, ne.Profile); err != nil {
				t.Errorf("VerifyNE: %v", err)
			}
			if err := VerifyCharacterization(ne.Game, ne.Profile); err != nil {
				t.Errorf("VerifyCharacterization: %v", err)
			}
		})
	}
}
