package core

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/defender-game/defender/internal/game"
	"github.com/defender-game/defender/internal/graph"
)

func ratOf(a, b int64) *big.Rat { return big.NewRat(a, b) }

func zeroLoads(n int) []*big.Rat {
	loads := make([]*big.Rat, n)
	for i := range loads {
		loads[i] = new(big.Rat)
	}
	return loads
}

func TestMaxTupleLoadIndependentCase(t *testing.T) {
	// Star K_{1,4}: loads on the (independent) leaves.
	g := graph.Star(5)
	loads := zeroLoads(5)
	loads[1] = ratOf(5, 1)
	loads[2] = ratOf(3, 1)
	loads[3] = ratOf(1, 1)

	tests := []struct {
		k    int
		want *big.Rat
	}{
		{1, ratOf(5, 1)},
		{2, ratOf(8, 1)},
		{3, ratOf(9, 1)},
		{4, ratOf(9, 1)}, // padding beyond the loaded vertices adds nothing
	}
	for _, tt := range tests {
		got, witness, err := MaxTupleLoad(g, tt.k, loads)
		if err != nil {
			t.Fatalf("k=%d: %v", tt.k, err)
		}
		if got.Cmp(tt.want) != 0 {
			t.Errorf("k=%d: max = %v, want %v", tt.k, got, tt.want)
		}
		if witness.Size() != tt.k {
			t.Errorf("k=%d: witness size %d", tt.k, witness.Size())
		}
		if wl := tupleLoadOf(g, loads, witness); wl.Cmp(tt.want) != 0 {
			t.Errorf("k=%d: witness load %v != claimed max %v", tt.k, wl, tt.want)
		}
	}
}

func TestMaxTupleLoadUniformCase(t *testing.T) {
	// C6 with uniform loads 1: μ = 3.
	g := graph.Cycle(6)
	loads := make([]*big.Rat, 6)
	for i := range loads {
		loads[i] = ratOf(1, 1)
	}
	tests := []struct {
		k    int
		want *big.Rat
	}{
		{1, ratOf(2, 1)},
		{2, ratOf(4, 1)},
		{3, ratOf(6, 1)},
		{4, ratOf(6, 1)},
		{6, ratOf(6, 1)},
	}
	for _, tt := range tests {
		got, witness, err := MaxTupleLoad(g, tt.k, loads)
		if err != nil {
			t.Fatalf("k=%d: %v", tt.k, err)
		}
		if got.Cmp(tt.want) != 0 {
			t.Errorf("k=%d: max = %v, want %v", tt.k, got, tt.want)
		}
		if wl := tupleLoadOf(g, loads, witness); wl.Cmp(tt.want) != 0 {
			t.Errorf("k=%d: witness load %v != max %v", tt.k, wl, tt.want)
		}
	}
}

func TestMaxTupleLoadUniformStar(t *testing.T) {
	// Star K_{1,5}: μ = 1, so k edges cover min(6, k+1) vertices.
	g := graph.Star(6)
	loads := make([]*big.Rat, 6)
	for i := range loads {
		loads[i] = ratOf(1, 2)
	}
	for k := 1; k <= 5; k++ {
		want := new(big.Rat).Mul(ratOf(1, 2), ratOf(int64(min(6, k+1)), 1))
		got, _, err := MaxTupleLoad(g, k, loads)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got.Cmp(want) != 0 {
			t.Errorf("k=%d: max = %v, want %v", k, got, want)
		}
	}
}

func TestMaxTupleLoadErrors(t *testing.T) {
	g := graph.Path(3)
	if _, _, err := MaxTupleLoad(g, 0, zeroLoads(3)); err == nil {
		t.Error("k=0 must fail")
	}
	if _, _, err := MaxTupleLoad(g, 3, zeroLoads(3)); err == nil {
		t.Error("k>m must fail")
	}
	loads := zeroLoads(3)
	loads[1] = ratOf(-1, 1)
	if _, _, err := MaxTupleLoad(g, 1, loads); err == nil {
		t.Error("negative load must fail")
	}
	loads = zeroLoads(3)
	loads[0] = nil
	if _, _, err := MaxTupleLoad(g, 1, loads); err == nil {
		t.Error("nil load must fail")
	}
}

// Property: the structural maximizers agree with exhaustive enumeration.
func TestPropertyMaxTupleLoadAgreesWithExhaustive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(3+rng.Intn(6), 0.5, seed)
		k := 1 + rng.Intn(g.NumEdges())
		loads := zeroLoads(g.NumVertices())
		switch rng.Intn(2) {
		case 0:
			// Loads on a greedy independent set.
			for _, v := range greedyIS(g) {
				loads[v] = big.NewRat(int64(1+rng.Intn(4)), int64(1+rng.Intn(3)))
			}
		case 1:
			// Uniform loads.
			c := big.NewRat(int64(1+rng.Intn(4)), int64(1+rng.Intn(3)))
			for i := range loads {
				loads[i] = c
			}
		}
		fast, fastWitness, err := MaxTupleLoad(g, k, loads)
		if err != nil {
			return false
		}
		slow, _, err := maxLoadExhaustive(g, k, loads)
		if err != nil {
			return false
		}
		if fast.Cmp(slow) != 0 {
			return false
		}
		return tupleLoadOf(g, loads, fastWitness).Cmp(fast) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// greedyIS is a tiny local maximal-independent-set helper for tests.
func greedyIS(g *graph.Graph) []int {
	blocked := make([]bool, g.NumVertices())
	var is []int
	for v := 0; v < g.NumVertices(); v++ {
		if blocked[v] {
			continue
		}
		is = append(is, v)
		for _, u := range g.Neighbors(v) {
			blocked[u] = true
		}
	}
	return is
}

func TestVerifyNENegativeCases(t *testing.T) {
	// C4: attacker mass on one vertex, defender on an edge missing it.
	g := graph.Cycle(4)
	gm, err := game.New(g, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := game.NewTuple(g, []graph.Edge{graph.NewEdge(2, 3)})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := game.UniformTupleStrategy([]game.Tuple{tp})
	if err != nil {
		t.Fatal(err)
	}
	// Attacker sits on covered vertex 2 while 0 is free: not a best
	// response for the attacker.
	mp := game.NewSymmetricProfile(1, game.UniformVertexStrategy([]int{2}), ts)
	if err := VerifyNE(gm, mp); !errors.Is(err, ErrNotEquilibrium) {
		t.Errorf("err = %v, want ErrNotEquilibrium", err)
	}
	// Attacker on uncovered vertex 0, defender wastes its tuple elsewhere:
	// defender deviation exists.
	mp2 := game.NewSymmetricProfile(1, game.UniformVertexStrategy([]int{0}), ts)
	if err := VerifyNE(gm, mp2); !errors.Is(err, ErrNotEquilibrium) {
		t.Errorf("err = %v, want ErrNotEquilibrium", err)
	}
}

func TestVerifyNERejectsInvalidProfile(t *testing.T) {
	g := graph.Cycle(4)
	gm, err := game.New(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Arity mismatch.
	tp, _ := game.NewTuple(g, []graph.Edge{graph.NewEdge(0, 1)})
	ts, _ := game.UniformTupleStrategy([]game.Tuple{tp})
	mp := game.NewSymmetricProfile(1, game.UniformVertexStrategy([]int{0}), ts)
	if err := VerifyNE(gm, mp); !errors.Is(err, game.ErrInvalidProfile) {
		t.Errorf("err = %v, want ErrInvalidProfile", err)
	}
}

func TestVerifyCharacterizationExtraConditions(t *testing.T) {
	// A profile that satisfies best-response conditions but violates the
	// cover conditions cannot exist by Theorem 3.4 for true equilibria;
	// here we exercise the negative path with a doctored profile on K2:
	// the only tuple covers everything, so conditions hold — build instead
	// on P4 where the defender covers only part of the graph but the
	// attacker support is outside... such profiles fail VerifyNE first, so
	// this test confirms the positive path on a genuine equilibrium.
	g := graph.CompleteBipartite(2, 3)
	ne, err := SolveTupleModel(g, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCharacterization(ne.Game, ne.Profile); err != nil {
		t.Errorf("characterization should hold: %v", err)
	}
}

func TestCombinationsWithin(t *testing.T) {
	tests := []struct {
		m, k, limit int
		want        bool
	}{
		{10, 2, 45, true},
		{10, 2, 44, false},
		{100, 3, 200000, true},
		{100, 50, 1 << 30, false},
		{5, 7, 1000, false},
		{5, -1, 1000, false},
		{5, 0, 1, true},
		{60, 30, 2000000, false},
	}
	for _, tt := range tests {
		if got := combinationsWithin(tt.m, tt.k, tt.limit); got != tt.want {
			t.Errorf("combinationsWithin(%d,%d,%d) = %v, want %v", tt.m, tt.k, tt.limit, got, tt.want)
		}
	}
}
