package core

import (
	"context"
	"errors"
	"math/big"
	"testing"

	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/matching"
)

// TestSolveAnyFamilies: the unified solver picks the expected family per
// instance and every returned profile verifies exactly.
func TestSolveAnyFamilies(t *testing.T) {
	tests := []struct {
		name       string
		g          *graph.Graph
		k          int
		wantFamily string
	}{
		{"bipartite grid", graph.Grid(3, 4), 2, "k-matching"},
		{"even cycle", graph.Cycle(8), 3, "k-matching"},
		{"K6 (clique, PM)", graph.Complete(6), 2, "perfect-matching"},
		{"petersen k1", graph.Petersen(), 1, "perfect-matching"},
		{"C5 k1", graph.Cycle(5), 1, "regular"},
		{"C5 k2 (LP only)", graph.Cycle(5), 2, "lp-minimax"},
		{"C7 k2 (LP only)", graph.Cycle(7), 2, "lp-minimax"},
		{"wheel6 k1 (has PM)", graph.Wheel(6), 1, "perfect-matching"},
		{"wheel7 k1 (LP only)", graph.Wheel(7), 1, "lp-minimax"},
		{"lollipop41 k1 (LP only)", graph.Lollipop(4, 1), 1, "lp-minimax"},
	}
	const nu = 3
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ne, family, err := SolveAny(tt.g, nu, tt.k)
			if err != nil {
				t.Fatalf("SolveAny: %v", err)
			}
			if family != tt.wantFamily {
				t.Errorf("family = %q, want %q", family, tt.wantFamily)
			}
			if err := VerifyNE(ne.Game, ne.Profile); err != nil {
				t.Fatalf("profile (%s) is not an equilibrium: %v", family, err)
			}
		})
	}
}

// TestSolveAnyLPLiftScalesWithNu: the LP-minimax lift is an equilibrium
// for every attacker count, with gain exactly ν·value.
func TestSolveAnyLPLiftScalesWithNu(t *testing.T) {
	g := graph.Cycle(5)
	value, _, _, err := GameValue(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, nu := range []int{1, 3, 7} {
		ne, family, err := SolveAny(g, nu, 2)
		if err != nil {
			t.Fatalf("ν=%d: %v", nu, err)
		}
		if family != "lp-minimax" {
			t.Fatalf("ν=%d: family %q", nu, family)
		}
		if err := VerifyNE(ne.Game, ne.Profile); err != nil {
			t.Fatalf("ν=%d: %v", nu, err)
		}
		want := new(big.Rat).SetInt64(int64(nu))
		want.Mul(want, value)
		if ne.DefenderGain().Cmp(want) != 0 {
			t.Errorf("ν=%d: gain %v, want ν·value = %v", nu, ne.DefenderGain(), want)
		}
	}
}

// TestSolveAnySmallWorld: a Watts–Strogatz graph that admits no structural
// family still gets a verified equilibrium through the LP route.
func TestSolveAnySmallWorld(t *testing.T) {
	g := graph.WattsStrogatz(12, 4, 0.2, 5)
	ne, family, err := SolveAny(g, 2, 1)
	if err != nil {
		t.Fatalf("SolveAny: %v", err)
	}
	if err := VerifyNE(ne.Game, ne.Profile); err != nil {
		t.Fatalf("family %s: %v", family, err)
	}
}

// TestSolveAnyOversized: a graph whose tuple space defeats the LP must
// surface ErrValueTooLarge rather than hang.
func TestSolveAnyOversized(t *testing.T) {
	// K9 minus a perfect matching... simpler: an irregular non-bipartite
	// graph with no PM and a huge C(m,k): complete graph K30 with one
	// pendant vertex (odd n ⇒ no PM, irregular, non-bipartite).
	g := graph.Complete(30)
	big := graph.New(31)
	for _, e := range g.Edges() {
		if err := big.AddEdge(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	if err := big.AddEdge(29, 30); err != nil {
		t.Fatal(err)
	}
	if _, _, err := SolveAny(big, 1, 6); !errors.Is(err, ErrValueTooLarge) {
		t.Errorf("err = %v, want ErrValueTooLarge", err)
	}
}

// TestSolveAnyRandomStress: SolveAny must deliver a verified equilibrium
// on every random connected instance within the enumeration limits.
func TestSolveAnyRandomStress(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		g := graph.RandomConnected(5+int(seed%8), 0.35, seed)
		k := 1 + int(seed%2)
		if k > g.NumEdges() {
			k = 1
		}
		ne, family, err := SolveAny(g, 3, k)
		if errors.Is(err, ErrValueTooLarge) {
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := VerifyNE(ne.Game, ne.Profile); err != nil {
			t.Fatalf("seed %d (family %s): %v\n%s", seed, family, err, g.EncodeString())
		}
	}
}

// TestHeawoodFamiliesTie: the Heawood graph is bipartite with |IS| = n/2,
// so the k-matching gain kν/|IS| and the perfect-matching gain 2kν/n are
// exactly equal — the two families tie on half-independence graphs.
func TestHeawoodFamiliesTie(t *testing.T) {
	g := graph.Heawood()
	const nu = 6
	for k := 1; k <= 3; k++ {
		km, err := SolveTupleModel(g, nu, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		pm, err := PerfectMatchingNE(g, nu, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if km.DefenderGain().Cmp(pm.DefenderGain()) != 0 {
			t.Errorf("k=%d: k-matching %v vs perfect-matching %v",
				k, km.DefenderGain(), pm.DefenderGain())
		}
		if err := VerifyNE(km.Game, km.Profile); err != nil {
			t.Fatal(err)
		}
		if err := VerifyNE(pm.Game, pm.Profile); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSolveAnyAllocs gates the allocations of a structured solve past the
// matching: Grid(16,16) at k=4, ν=2 takes the k-matching family, whose
// checks (partition witness, Game.Validate, Definition 4.1 and the
// Theorem 3.4 cover conditions) all run exactly. They once allocated
// 13,544 times per solve, mostly for big.Rat sums, string tuple keys and
// a discarded Π_1 profile, then 3,432 times while the König route's SDR
// search copied an adjacency list per step. What is left is mostly one
// edge-id slice per cyclic tuple and the 2-colouring.
func TestSolveAnyAllocs(t *testing.T) {
	g := graph.Grid(16, 16)
	mate := matching.Maximum(g)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(20, func() {
		if _, family, err := SolveAnyFromMatchingCtx(ctx, g, mate, 2, 4); err != nil || family != "k-matching" {
			t.Fatalf("family %q, err %v", family, err)
		}
	})
	t.Logf("Grid(16,16), k=4, ν=2: %.0f allocs per solve", allocs)
	const limit = 151
	if allocs > limit {
		t.Errorf("a Grid(16,16) k=4 solve allocates %.0f times, want <= %d", allocs, limit)
	}
}
