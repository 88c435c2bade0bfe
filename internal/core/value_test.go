package core

import (
	"context"
	"errors"
	"math/big"
	"sync/atomic"
	"testing"
	"time"

	"github.com/defender-game/defender/internal/game"
	"github.com/defender-game/defender/internal/graph"
)

// TestGameValueMatchesKMatchingPrediction is the oracle cross-check: for
// ν = 1 the game is constant-sum, so the LP minimax value must equal the
// k-matching equilibrium's hit probability k/|E(D(tp))| wherever such an
// equilibrium exists — the LP knows nothing about matchings.
func TestGameValueMatchesKMatchingPrediction(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		maxK int
	}{
		{"K2", graph.Path(2), 1},
		{"path4", graph.Path(4), 2},
		{"path5", graph.Path(5), 2},
		{"C6", graph.Cycle(6), 3},
		{"C8", graph.Cycle(8), 2},
		{"star5", graph.Star(5), 2},
		{"K33", graph.CompleteBipartite(3, 3), 2},
		{"grid23", graph.Grid(2, 3), 2},
		{"tree8", graph.RandomTree(8, 3), 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for k := 1; k <= tt.maxK && k <= tt.g.NumEdges(); k++ {
				ne, err := SolveTupleModel(tt.g, 1, k)
				if errors.Is(err, ErrKTooLarge) {
					continue
				}
				if err != nil {
					t.Fatalf("k=%d solve: %v", k, err)
				}
				value, _, _, err := GameValue(tt.g, k)
				if err != nil {
					t.Fatalf("k=%d value: %v", k, err)
				}
				if value.Cmp(ne.HitProbability()) != 0 {
					t.Errorf("k=%d: LP value %v != k-matching prediction %v",
						k, value, ne.HitProbability())
				}
			}
		})
	}
}

// TestGameValueOnNonMatchingGraphs: graphs with no k-matching equilibrium
// still have a minimax value; for regular graphs at k=1 it must match the
// regular-graph equilibrium's hit probability d/m = 2/n.
func TestGameValueOnNonMatchingGraphs(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want *big.Rat
	}{
		{"C5", graph.Cycle(5), big.NewRat(2, 5)},
		{"C7", graph.Cycle(7), big.NewRat(2, 7)},
		{"K4", graph.Complete(4), big.NewRat(1, 2)},
		{"K5", graph.Complete(5), big.NewRat(2, 5)},
		{"petersen", graph.Petersen(), big.NewRat(1, 5)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			value, _, _, err := GameValue(tt.g, 1)
			if err != nil {
				t.Fatal(err)
			}
			if value.Cmp(tt.want) != 0 {
				t.Errorf("value = %v, want %v", value, tt.want)
			}
		})
	}
}

// TestGameValuePerfectMatchingPrediction: at any k <= n/2 on a graph with
// a perfect matching, the LP value must be >= the perfect-matching
// equilibrium hit probability 2k/n... in fact equal, since for ν=1 all
// equilibria share the value.
func TestGameValuePerfectMatchingPrediction(t *testing.T) {
	for _, tt := range []struct {
		name string
		g    *graph.Graph
	}{
		{"C6", graph.Cycle(6)},
		{"K4", graph.Complete(4)},
		{"Q3", graph.Hypercube(3)},
	} {
		t.Run(tt.name, func(t *testing.T) {
			for k := 1; k <= 2; k++ {
				ne, err := PerfectMatchingNE(tt.g, 1, k)
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				value, _, _, err := GameValue(tt.g, k)
				if err != nil {
					t.Fatal(err)
				}
				want := ne.HitProbability()
				if value.Cmp(want) != 0 {
					t.Errorf("k=%d: LP value %v != PM prediction %v", k, value, want)
				}
			}
		})
	}
}

// TestGameValueIncreasingInK: more defender power can never decrease the
// minimax value (the defender can always ignore extra edges... formally,
// any (k)-tuple extends to a (k+1)-tuple covering at least as much).
func TestGameValueIncreasingInK(t *testing.T) {
	g := graph.Cycle(5)
	prev := new(big.Rat)
	for k := 1; k <= g.NumEdges(); k++ {
		value, _, _, err := GameValue(g, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if value.Cmp(prev) < 0 {
			t.Errorf("value decreased at k=%d: %v < %v", k, value, prev)
		}
		prev = value
	}
	// At k = m the defender covers everything: value 1.
	if prev.Cmp(big.NewRat(1, 1)) != 0 {
		t.Errorf("value at k=m is %v, want 1", prev)
	}
}

// TestGameValueStrategyIsEquilibrium: the oracle's defender strategy,
// paired with an attacker best response, verifies as an exact NE via the
// Theorem 3.4 machinery.
func TestGameValueStrategyIsEquilibrium(t *testing.T) {
	g := graph.Cycle(5) // no k-matching NE exists; LP finds the NE anyway
	value, tuples, probs, err := GameValue(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := game.NewTupleStrategy(tuples, probs)
	if err != nil {
		t.Fatal(err)
	}
	gm, err := game.New(g, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Attacker best response: uniform over minimum-hit vertices.
	probe := game.NewSymmetricProfile(1, game.UniformVertexStrategy([]int{0}), ts)
	hit := gm.HitProbabilities(probe)
	minHit := new(big.Rat).Set(hit[0])
	for _, h := range hit[1:] {
		if h.Cmp(minHit) < 0 {
			minHit.Set(h)
		}
	}
	if minHit.Cmp(value) != 0 {
		t.Fatalf("defender strategy guarantees %v, value is %v", minHit, value)
	}
	var support []int
	for v, h := range hit {
		if h.Cmp(minHit) == 0 {
			support = append(support, v)
		}
	}
	mp := game.NewSymmetricProfile(1, game.UniformVertexStrategy(support), ts)
	if err := VerifyNE(gm, mp); err != nil {
		t.Errorf("LP-derived profile is not an equilibrium: %v", err)
	}
}

func TestGameValueErrors(t *testing.T) {
	if _, _, _, err := GameValue(graph.New(0), 1); err == nil {
		t.Error("empty graph must fail")
	}
	iso := graph.New(3)
	if err := iso.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := GameValue(iso, 1); !errors.Is(err, game.ErrIsolatedVertex) {
		t.Errorf("err = %v, want ErrIsolatedVertex", err)
	}
	if _, _, _, err := GameValue(graph.Path(3), 5); !errors.Is(err, game.ErrBadK) {
		t.Errorf("err = %v, want ErrBadK", err)
	}
	if _, _, _, err := GameValue(graph.Complete(30), 6); !errors.Is(err, ErrValueTooLarge) {
		t.Errorf("err = %v, want ErrValueTooLarge", err)
	}
}

func TestEnumerateTuples(t *testing.T) {
	g := graph.Cycle(5)
	tuples := EnumerateTuples(g, 2)
	if len(tuples) != 10 { // C(5,2)
		t.Fatalf("C(5,2) = %d, want 10", len(tuples))
	}
	seen := make(map[string]bool)
	for _, tp := range tuples {
		if tp.Size() != 2 {
			t.Fatalf("tuple %v has size %d", tp, tp.Size())
		}
		if seen[tp.Key()] {
			t.Fatalf("duplicate tuple %v", tp)
		}
		seen[tp.Key()] = true
	}
}

// trianglesAndEdges is c disjoint triangles plus e disjoint edges: no
// perfect matching and not König–Egerváry, so SolveAny answers it by LP.
func trianglesAndEdges(c, e int) *graph.Graph {
	g := graph.New(3*c + 2*e)
	for i := 0; i < c; i++ {
		u := 3 * i
		g.AddEdge(u, u+1)
		g.AddEdge(u+1, u+2)
		g.AddEdge(u, u+2)
	}
	for i := 0; i < e; i++ {
		u := 3*c + 2*i
		g.AddEdge(u, u+1)
	}
	return g
}

// TestGameValueCtxCancelled: the LP oracle observes ctx at every simplex
// pivot. On 48 triangles + 56 edges at k = 2 (n = 256, 19,900 tuples,
// about 0.6 s and 355 pivots uncancelled on 2 cores) a cancelled context
// returns context.Canceled — through GameValueCtx and through
// SolveAnyCtx's lp-minimax fallback — within half a second of the cancel.
func TestGameValueCtxCancelled(t *testing.T) {
	const bound = 500 * time.Millisecond
	g := trianglesAndEdges(48, 56)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, _, _, err := GameValueCtx(ctx, g, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("GameValueCtx: err = %v, want context.Canceled", err)
	}
	if _, _, err := SolveAnyCtx(ctx, g, 2, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveAnyCtx: err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*bound {
		t.Errorf("pre-cancelled solves took %v", d)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var cancelledAt atomic.Int64
	time.AfterFunc(20*time.Millisecond, func() {
		cancelledAt.Store(time.Now().UnixNano())
		cancel()
	})
	_, _, _, err := GameValueCtx(ctx, g, 2)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-solve cancel: err = %v, want context.Canceled", err)
	}
	if d := returned.Sub(time.Unix(0, cancelledAt.Load())); d > bound {
		t.Errorf("GameValueCtx returned %v after the cancel, bound %v", d, bound)
	}
}
