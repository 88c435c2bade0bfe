package core

import (
	"errors"
	"testing"

	"github.com/defender-game/defender/internal/graph"
)

// validatePath checks that path is a Hamiltonian path of g.
func validatePath(t *testing.T, g *graph.Graph, path []int) {
	t.Helper()
	if len(path) != g.NumVertices() {
		t.Fatalf("path visits %d of %d vertices", len(path), g.NumVertices())
	}
	seen := make(map[int]bool)
	for i, v := range path {
		if seen[v] {
			t.Fatalf("vertex %d repeated", v)
		}
		seen[v] = true
		if i > 0 && !g.HasEdge(path[i-1], v) {
			t.Fatalf("(%d,%d) is not an edge", path[i-1], v)
		}
	}
}

func TestHamiltonianPathPositive(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"K2", graph.Path(2)},
		{"P6", graph.Path(6)},
		{"C5", graph.Cycle(5)},
		{"C8", graph.Cycle(8)},
		{"K5", graph.Complete(5)},
		{"grid33", graph.Grid(3, 3)},
		{"grid24", graph.Grid(2, 4)},
		{"petersen", graph.Petersen()},
		{"hypercube3", graph.Hypercube(3)},
		{"wheel6", graph.Wheel(6)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ok, path, err := hamiltonianPath(tt.g)
			if err != nil {
				t.Fatalf("hamiltonianPath: %v", err)
			}
			if !ok {
				t.Fatal("Hamiltonian path must exist")
			}
			validatePath(t, tt.g, path)
		})
	}
}

func TestHamiltonianPathNegative(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"star4", graph.Star(4)},
		{"star7", graph.Star(7)},
		{"disconnected", graph.PerfectMatchingGraph(4)},
		{"spider", spiderGraph(t)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ok, _, err := hamiltonianPath(tt.g)
			if err != nil {
				t.Fatalf("hamiltonianPath: %v", err)
			}
			if ok {
				t.Fatal("no Hamiltonian path should exist")
			}
		})
	}
}

// spiderGraph: three paths of length 2 glued at a center — a tree with
// three leaves, so no Hamiltonian path.
func spiderGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(7)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 3}, {3, 4}, {0, 5}, {5, 6}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestHamiltonianPathEdgeCases(t *testing.T) {
	ok, path, err := hamiltonianPath(graph.New(1))
	if err != nil || !ok || len(path) != 1 {
		t.Errorf("singleton: ok=%v path=%v err=%v", ok, path, err)
	}
	ok, _, err = hamiltonianPath(graph.New(0))
	if err != nil || ok {
		t.Errorf("empty: ok=%v err=%v", ok, err)
	}
	if _, _, err := hamiltonianPath(graph.Grid(5, 5)); !errors.Is(err, ErrPathTooLarge) {
		t.Errorf("n=25: err = %v, want ErrPathTooLarge", err)
	}
}

func TestHasPurePathNE(t *testing.T) {
	// C6: Hamiltonian path exists, so pure path NE iff k = 5.
	g := graph.Cycle(6)
	for k := 1; k <= 6; k++ {
		exists, path, err := HasPurePathNE(g, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if want := k == 5; exists != want {
			t.Errorf("k=%d: exists=%v, want %v", k, exists, want)
		}
		if exists {
			validatePath(t, g, path)
		}
	}
	// Star: no Hamiltonian path, never a pure path NE.
	star := graph.Star(5)
	exists, _, err := HasPurePathNE(star, 4)
	if err != nil {
		t.Fatal(err)
	}
	if exists {
		t.Error("star admits no pure path NE")
	}
}
