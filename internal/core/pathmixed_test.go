package core

import (
	"errors"
	"math/big"
	"testing"

	"github.com/defender-game/defender/internal/game"
	"github.com/defender-game/defender/internal/graph"
)

func TestEnumerateKEdgePathsCounts(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		k    int
		want int
	}{
		{"P4 k1", graph.Path(4), 1, 3}, // each edge
		{"P4 k2", graph.Path(4), 2, 2}, // 0-1-2, 1-2-3
		{"P4 k3", graph.Path(4), 3, 1}, // the whole path
		{"C5 k1", graph.Cycle(5), 1, 5},
		{"C5 k2", graph.Cycle(5), 2, 5}, // one arc per middle vertex
		{"C5 k3", graph.Cycle(5), 3, 5},
		{"K4 k2", graph.Complete(4), 2, 12}, // 4·C(3,2) ordered /? middle choose 2 ends: 4·3=12
		{"star5 k2", graph.Star(5), 2, 6},   // through the hub: C(4,2)
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			paths, err := enumerateKEdgePaths(tt.g, tt.k, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(paths) != tt.want {
				t.Errorf("paths = %d, want %d (%v)", len(paths), tt.want, paths)
			}
			for _, p := range paths {
				if len(p) != tt.k+1 {
					t.Errorf("path %v has %d vertices, want %d", p, len(p), tt.k+1)
				}
			}
		})
	}
}

func TestEnumerateKEdgePathsCap(t *testing.T) {
	if _, err := enumerateKEdgePaths(graph.Complete(10), 5, 50); !errors.Is(err, ErrTooManyPaths) {
		t.Errorf("err = %v, want ErrTooManyPaths", err)
	}
	if _, err := enumerateKEdgePaths(graph.Path(3), 0, 0); err == nil {
		t.Error("k=0 must fail")
	}
}

func TestPathAsTuple(t *testing.T) {
	g := graph.Cycle(5)
	tp, err := pathAsTuple(g, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if tp.Size() != 2 {
		t.Errorf("size = %d", tp.Size())
	}
	if _, err := pathAsTuple(g, []int{0, 2}); err == nil {
		t.Error("non-edge hop must fail")
	}
	if _, err := pathAsTuple(g, []int{0}); err == nil {
		t.Error("single vertex must fail")
	}
}

func TestCyclePathNE(t *testing.T) {
	const nu = 6
	for _, n := range []int{5, 6, 8, 9} {
		g := graph.Cycle(n)
		for k := 1; k <= 3 && k <= n-2; k++ {
			ne, err := CyclePathNE(g, nu, k)
			if err != nil {
				t.Fatalf("C%d k=%d: %v", n, k, err)
			}
			if err := VerifyPathNE(ne.Game, ne.Profile); err != nil {
				t.Fatalf("C%d k=%d: not a path-model NE: %v", n, k, err)
			}
			// Gain = (k+1)·ν/n.
			want := big.NewRat(int64(k+1)*nu, int64(n))
			if got := ne.DefenderGain(); got.Cmp(want) != 0 {
				t.Errorf("C%d k=%d: gain %v, want %v", n, k, got, want)
			}
		}
	}
}

func TestCyclePathNEErrors(t *testing.T) {
	if _, err := CyclePathNE(graph.Path(5), 1, 1); err == nil {
		t.Error("non-cycle must fail")
	}
	if _, err := CyclePathNE(graph.Cycle(5), 1, 4); !errors.Is(err, ErrKTooLarge) {
		t.Errorf("k=n-1: err = %v, want ErrKTooLarge", err)
	}
	// Two disjoint triangles are 2-regular but disconnected.
	two, _ := graph.DisjointUnion(graph.Cycle(3), graph.Cycle(3))
	if _, err := CyclePathNE(two, 1, 1); err == nil {
		t.Error("disconnected 2-regular graph must fail")
	}
}

// TestContiguityCostsTheDefender: on even cycles where both models apply,
// the Path-model gain (k+1)ν/n is strictly below the Tuple-model
// perfect-matching gain 2kν/n for k >= 2 and equal at k = 1.
func TestContiguityCostsTheDefender(t *testing.T) {
	const nu = 12
	g := graph.Cycle(8)
	for k := 1; k <= 4; k++ {
		pathNE, err := CyclePathNE(g, nu, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		tupleNE, err := PerfectMatchingNE(g, nu, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		cmp := pathNE.DefenderGain().Cmp(tupleNE.DefenderGain())
		if k == 1 && cmp != 0 {
			t.Errorf("k=1: path %v vs tuple %v, want equal",
				pathNE.DefenderGain(), tupleNE.DefenderGain())
		}
		if k >= 2 && cmp >= 0 {
			t.Errorf("k=%d: path gain %v should be strictly below tuple gain %v",
				k, pathNE.DefenderGain(), tupleNE.DefenderGain())
		}
	}
}

// TestVerifyPathNERejectsNonPaths: a Tuple-model equilibrium whose support
// tuples are not contiguous is not a Path-model profile.
func TestVerifyPathNERejectsNonPaths(t *testing.T) {
	g := graph.Cycle(8)
	ne, err := PerfectMatchingNE(g, 2, 2) // disjoint edges: never a path
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyPathNE(ne.Game, ne.Profile); !errors.Is(err, ErrNotEquilibrium) {
		t.Errorf("err = %v, want ErrNotEquilibrium (support not paths)", err)
	}
}

// TestVerifyPathNERejectsBadLoads: rotation defense against a concentrated
// attacker is not an equilibrium (the attacker should spread out).
func TestVerifyPathNERejectsBadLoads(t *testing.T) {
	g := graph.Cycle(6)
	ne, err := CyclePathNE(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	concentrated := game.NewSymmetricProfile(2, game.UniformVertexStrategy([]int{0}), ne.Profile.TP)
	if err := VerifyPathNE(ne.Game, concentrated); !errors.Is(err, ErrNotEquilibrium) {
		t.Errorf("err = %v, want ErrNotEquilibrium", err)
	}
}
