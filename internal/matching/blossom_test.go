package matching

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/defender-game/defender/internal/graph"
)

func maxGeneral(t *testing.T, g *graph.Graph) []int {
	t.Helper()
	mate := Maximum(g)
	if err := Verify(g, mate); err != nil {
		t.Fatalf("blossom produced invalid matching: %v", err)
	}
	return mate
}

func TestBlossomKnownSizes(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"triangle", graph.Complete(3), 1},
		{"K4", graph.Complete(4), 2},
		{"K5", graph.Complete(5), 2},
		{"K6", graph.Complete(6), 3},
		{"C5", graph.Cycle(5), 2},
		{"C7", graph.Cycle(7), 3},
		{"C8", graph.Cycle(8), 4},
		{"petersen", graph.Petersen(), 5},
		{"star", graph.Star(7), 1},
		{"path7", graph.Path(7), 3},
		{"wheel6", graph.Wheel(6), 3},
		{"grid33", graph.Grid(3, 3), 4},
		{"hypercube4", graph.Hypercube(4), 8},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			mate := maxGeneral(t, tt.g)
			if got := Size(mate); got != tt.want {
				t.Errorf("matching size = %d, want %d", got, tt.want)
			}
		})
	}
}

// twoTriangles is the classic blossom stress shape: two triangles joined by
// a bridge; maximum matching is 3 and requires threading through a blossom.
func TestBlossomTwoTriangles(t *testing.T) {
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	mate := maxGeneral(t, g)
	if got := Size(mate); got != 3 {
		t.Errorf("matching size = %d, want 3", got)
	}
}

// flowerGraph nests blossoms: an odd cycle with pendant edges.
func TestBlossomFlower(t *testing.T) {
	g := graph.New(10)
	// C5 on 0..4 plus a pendant vertex 5..9 hanging off each cycle vertex.
	for i := 0; i < 5; i++ {
		if err := g.AddEdge(i, (i+1)%5); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(i, i+5); err != nil {
			t.Fatal(err)
		}
	}
	mate := maxGeneral(t, g)
	if got := Size(mate); got != 5 {
		t.Errorf("matching size = %d, want 5 (perfect)", got)
	}
}

func TestBlossomMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		g := graph.RandomGNP(n, 0.55, seed)
		if g.NumEdges() > 16 || g.NumEdges() == 0 {
			continue
		}
		mate := maxGeneral(t, g)
		if got, want := Size(mate), bruteForceMaximumMatchingSize(g); got != want {
			t.Fatalf("seed %d: blossom %d, brute force %d\n%s", seed, got, want, g.EncodeString())
		}
	}
}

// Property: on bipartite graphs, blossom and the CSR Hopcroft–Karp agree.
func TestPropertyBlossomAgreesWithHopcroftKarp(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomBipartite(1+rng.Intn(12), 1+rng.Intn(12), rng.Float64(), seed)
		hk, _, err := MaximumBipartiteCSR(graph.FromGraph(g))
		if err != nil {
			return false
		}
		bl := Maximum(g)
		if err := Verify(g, bl); err != nil {
			return false
		}
		return SizeCSR(hk) == Size(bl)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the blossom matching is maximal (no augmenting edge remains
// between two unmatched vertices) and never exceeds n/2.
func TestPropertyBlossomMaximal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(16)
		g := graph.RandomGNP(n, 0.3, seed)
		mate := Maximum(g)
		if err := Verify(g, mate); err != nil {
			return false
		}
		if Size(mate) > n/2 {
			return false
		}
		for _, e := range g.Edges() {
			if mate[e.U] == Unmatched && mate[e.V] == Unmatched {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestBlossomPerfectOnEvenCompleteGraphs(t *testing.T) {
	for n := 2; n <= 12; n += 2 {
		g := graph.Complete(n)
		mate := maxGeneral(t, g)
		if Size(mate) != n/2 {
			t.Errorf("K%d: size = %d, want %d", n, Size(mate), n/2)
		}
	}
}

func TestBlossomEmptyAndEdgeless(t *testing.T) {
	if got := Size(Maximum(graph.New(0))); got != 0 {
		t.Errorf("empty graph matching = %d", got)
	}
	if got := Size(Maximum(graph.New(5))); got != 0 {
		t.Errorf("edgeless graph matching = %d", got)
	}
}
