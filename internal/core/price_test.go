package core

import (
	"math/big"
	"testing"

	"github.com/defender-game/defender/internal/graph"
)

func TestEscapesAndProtectionRatio(t *testing.T) {
	g := graph.CompleteBipartite(3, 4) // |IS| = 4
	ne, err := SolveTupleModel(g, 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	// gain = 2·12/4 = 6; escapes = 6; protection = 1/2.
	if got := ne.Escapes(); got.Cmp(big.NewRat(6, 1)) != 0 {
		t.Errorf("Escapes = %v, want 6", got)
	}
	if got := ne.ProtectionRatio(); got.Cmp(big.NewRat(1, 2)) != 0 {
		t.Errorf("ProtectionRatio = %v, want 1/2", got)
	}
	// Conservation: gain + escapes = ν.
	sum := new(big.Rat).Add(ne.DefenderGain(), ne.Escapes())
	if sum.Cmp(big.NewRat(12, 1)) != 0 {
		t.Errorf("gain + escapes = %v, want 12", sum)
	}
}

func TestEdgeEquilibriumMetrics(t *testing.T) {
	g := graph.Cycle(8) // |IS| = 4
	ne, err := SolveEdgeModel(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := ne.ProtectionRatio(); got.Cmp(big.NewRat(1, 4)) != 0 {
		t.Errorf("ProtectionRatio = %v, want 1/4", got)
	}
	if got := ne.Escapes(); got.Cmp(big.NewRat(6, 1)) != 0 {
		t.Errorf("Escapes = %v, want 6", got)
	}
}

// TestEquilibriumAttainsMaxminGuarantee: the equilibrium gain equals the
// defender's best possible guarantee ν·value — playing the k-matching
// equilibrium is maxmin-optimal.
func TestEquilibriumAttainsMaxminGuarantee(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"path5", graph.Path(5), 1},
		{"C6 k1", graph.Cycle(6), 1},
		{"C6 k2", graph.Cycle(6), 2},
		{"K33", graph.CompleteBipartite(3, 3), 2},
		{"star5", graph.Star(5), 2},
	}
	const nu = 7
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ne, err := SolveTupleModel(tt.g, nu, tt.k)
			if err != nil {
				t.Fatal(err)
			}
			guarantee, err := MaxminGuarantee(tt.g, nu, tt.k)
			if err != nil {
				t.Fatal(err)
			}
			if ne.DefenderGain().Cmp(guarantee) != 0 {
				t.Errorf("gain %v != maxmin guarantee %v", ne.DefenderGain(), guarantee)
			}
		})
	}
}

// TestMaxminGuaranteeOnNonMatchingGraphs: where no k-matching NE exists
// the guarantee is still well-defined (and exceeds what a naive uniform
// defense would promise on, e.g., odd cycles).
func TestMaxminGuaranteeOnNonMatchingGraphs(t *testing.T) {
	got, err := MaxminGuarantee(graph.Cycle(5), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewRat(4, 1)) != 0 { // 10 · 2/5
		t.Errorf("C5 guarantee = %v, want 4", got)
	}
	if _, err := MaxminGuarantee(graph.Complete(30), 1, 6); err == nil {
		t.Error("oversized tuple space must fail")
	}
}

// Escapes is the Edge-model analogue of TupleEquilibrium.Escapes.
func (ne EdgeEquilibrium) Escapes() *big.Rat {
	nu := new(big.Rat).SetInt64(int64(ne.Game.Attackers()))
	return nu.Sub(nu, ne.DefenderGain())
}

// ProtectionRatio is the Edge-model analogue of
// TupleEquilibrium.ProtectionRatio (= 1/|IS| for matching equilibria).
func (ne EdgeEquilibrium) ProtectionRatio() *big.Rat {
	return new(big.Rat).Quo(ne.DefenderGain(), new(big.Rat).SetInt64(int64(ne.Game.Attackers())))
}
