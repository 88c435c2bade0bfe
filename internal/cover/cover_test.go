package cover

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/matching"
)

func TestIsEdgeCover(t *testing.T) {
	g := graph.Path(4) // edges (0,1),(1,2),(2,3)
	tests := []struct {
		name  string
		edges []graph.Edge
		want  bool
	}{
		{"ends only", []graph.Edge{graph.NewEdge(0, 1), graph.NewEdge(2, 3)}, true},
		{"middle only", []graph.Edge{graph.NewEdge(1, 2)}, false},
		{"all", []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}, true},
		{"foreign edge", []graph.Edge{graph.NewEdge(0, 3)}, false},
		{"empty", nil, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := IsEdgeCover(g, tt.edges); got != tt.want {
				t.Errorf("IsEdgeCover = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestMinimumEdgeCoverSizes(t *testing.T) {
	// Gallai: rho = n - mu.
	tests := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"single edge", graph.Path(2), 1},
		{"path4", graph.Path(4), 2},
		{"path5", graph.Path(5), 3},
		{"star", graph.Star(6), 5},
		{"C5", graph.Cycle(5), 3},
		{"C6", graph.Cycle(6), 3},
		{"K4", graph.Complete(4), 2},
		{"K5", graph.Complete(5), 3},
		{"petersen", graph.Petersen(), 5},
		{"K34", graph.CompleteBipartite(3, 4), 4},
		{"two triangles", twoTriangles(t), 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ec, err := MinimumEdgeCover(tt.g)
			if err != nil {
				t.Fatalf("MinimumEdgeCover: %v", err)
			}
			if !IsEdgeCover(tt.g, ec) {
				t.Fatal("result is not an edge cover")
			}
			if len(ec) != tt.want {
				t.Errorf("|EC| = %d, want %d", len(ec), tt.want)
			}
		})
	}
}

func twoTriangles(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestMinimumEdgeCoverIsolated(t *testing.T) {
	g := graph.New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := MinimumEdgeCover(g); !errors.Is(err, ErrIsolatedVertex) {
		t.Errorf("err = %v, want ErrIsolatedVertex", err)
	}
}

// Property: Gallai's identity rho(G) = n - mu(G) on random graphs without
// isolated vertices.
func TestPropertyGallaiIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(2+rng.Intn(25), 0.15, seed)
		ec, err := MinimumEdgeCover(g)
		if err != nil {
			return false
		}
		if !IsEdgeCover(g, ec) {
			return false
		}
		mu := matching.Size(matching.Maximum(g))
		return len(ec) == g.NumVertices()-mu
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestHasEdgeCoverOfSize(t *testing.T) {
	g := graph.Cycle(6) // rho = 3, m = 6
	tests := []struct {
		k    int
		want bool
	}{
		{-1, false}, {0, false}, {2, false}, {3, true}, {5, true}, {6, true}, {7, false},
	}
	for _, tt := range tests {
		got, err := HasEdgeCoverOfSize(g, tt.k)
		if err != nil {
			t.Fatalf("k=%d: %v", tt.k, err)
		}
		if got != tt.want {
			t.Errorf("HasEdgeCoverOfSize(C6,%d) = %v, want %v", tt.k, got, tt.want)
		}
	}
	// Isolated vertices: no cover of any size, but no hard error.
	lonely := graph.New(2)
	got, err := HasEdgeCoverOfSize(lonely, 1)
	if err != nil || got {
		t.Errorf("isolated: got (%v,%v), want (false,nil)", got, err)
	}
}

func TestEdgeCoverOfSize(t *testing.T) {
	g := graph.Cycle(6)
	for k := 3; k <= 6; k++ {
		ec, err := EdgeCoverOfSize(g, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(ec) != k || !IsEdgeCover(g, ec) {
			t.Fatalf("k=%d: got %d edges, cover=%v", k, len(ec), IsEdgeCover(g, ec))
		}
		// Distinctness.
		seen := make(map[graph.Edge]bool)
		for _, e := range ec {
			if seen[e] {
				t.Fatalf("k=%d: duplicate edge %v", k, e)
			}
			seen[e] = true
		}
	}
	if _, err := EdgeCoverOfSize(g, 2); err == nil {
		t.Error("k below rho must fail")
	}
	if _, err := EdgeCoverOfSize(g, 7); err == nil {
		t.Error("k above m must fail")
	}
}

func TestVertexCoverPredicates(t *testing.T) {
	g := graph.Cycle(4)
	if !IsVertexCover(g, []int{0, 2}) {
		t.Error("{0,2} covers C4")
	}
	if IsVertexCover(g, []int{0, 1}) {
		t.Error("{0,1} misses edge (2,3)")
	}
	if !IsIndependentSet(g, []int{0, 2}) {
		t.Error("{0,2} independent in C4")
	}
	if IsIndependentSet(g, []int{0, 1}) {
		t.Error("{0,1} adjacent")
	}
	if !IsVertexCoverOfEdges(4, []graph.Edge{{U: 0, V: 1}}, []int{1}) {
		t.Error("{1} covers the single edge")
	}
	if IsVertexCoverOfEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}, []int{1}) {
		t.Error("{1} misses (2,3)")
	}
}

func TestMinimumVertexCoverBipartite(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want int // König: equals max matching size
	}{
		{"path5", graph.Path(5), 2},
		{"star", graph.Star(9), 1},
		{"K35", graph.CompleteBipartite(3, 5), 3},
		{"C8", graph.Cycle(8), 4},
		{"grid", graph.Grid(3, 3), 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			vc, err := MinimumVertexCoverBipartite(tt.g)
			if err != nil {
				t.Fatalf("MinimumVertexCoverBipartite: %v", err)
			}
			if len(vc) != tt.want {
				t.Errorf("|VC| = %d, want %d", len(vc), tt.want)
			}
			if !IsVertexCover(tt.g, vc) {
				t.Error("result is not a vertex cover")
			}
		})
	}
	if _, err := MinimumVertexCoverBipartite(graph.Cycle(5)); !errors.Is(err, graph.ErrNotBipartite) {
		t.Errorf("odd cycle: err = %v", err)
	}
}

// bruteForceMinVertexCover finds the true minimum vertex cover size by
// subset enumeration — the oracle for the König construction.
func bruteForceMinVertexCover(g *graph.Graph) int {
	n := g.NumVertices()
	best := n
	for mask := 0; mask < 1<<uint(n); mask++ {
		var vs []int
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) != 0 {
				vs = append(vs, v)
			}
		}
		if len(vs) < best && IsVertexCover(g, vs) {
			best = len(vs)
		}
	}
	return best
}

// Property: the König minimum vertex cover is truly minimum.
func TestPropertyKonigCoverIsMinimum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomBipartite(1+rng.Intn(5), 1+rng.Intn(5), rng.Float64(), seed)
		if g.NumVertices() > 12 {
			return true
		}
		vc, err := MinimumVertexCoverBipartite(g)
		if err != nil {
			return false
		}
		return len(vc) == bruteForceMinVertexCover(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The König route's IS is a maximum independent set: the complement of
// a minimum vertex cover.
func TestMaximumIndependentSetBipartite(t *testing.T) {
	g := graph.CompleteBipartite(3, 5)
	p, err := FindNEPartition(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.IS) != 5 || !IsIndependentSet(g, p.IS) {
		t.Errorf("IS = %v", p.IS)
	}
}

func TestMinimumEdgeCoverFromMatching(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Cycle(7), graph.Path(6), graph.Star(5), graph.Petersen(),
	} {
		mate := matching.Maximum(g)
		ec, err := minimumEdgeCoverFromMatching(g, mate)
		if err != nil {
			t.Fatalf("from matching: %v", err)
		}
		want, err := MinimumEdgeCover(g)
		if err != nil {
			t.Fatalf("fresh: %v", err)
		}
		if len(ec) != len(want) || !IsEdgeCover(g, ec) {
			t.Errorf("cover from matching has %d edges (valid=%v), want %d",
				len(ec), IsEdgeCover(g, ec), len(want))
		}
	}
}

func TestMinimumEdgeCoverFromMatchingRejectsBadInput(t *testing.T) {
	g := graph.Cycle(6)
	if _, err := minimumEdgeCoverFromMatching(g, make([]int, 2)); err == nil {
		t.Error("want error for a mate array of the wrong length")
	}
	iso := graph.New(3)
	if err := iso.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := minimumEdgeCoverFromMatching(iso, matching.Maximum(iso)); err == nil {
		t.Error("want ErrIsolatedVertex")
	}
}

// IsVertexCover reports whether vs covers every edge of g. O(n + m);
// allocates a membership bitmap and the edge-list copy.
func IsVertexCover(g *graph.Graph, vs []int) bool {
	member := membership(g.NumVertices(), vs)
	for _, e := range g.Edges() {
		if !member[e.U] && !member[e.V] {
			return false
		}
	}
	return true
}
