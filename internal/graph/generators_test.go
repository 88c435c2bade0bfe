package graph

import (
	"fmt"
	"testing"
)

func TestPathGenerator(t *testing.T) {
	g := Path(5)
	if g.NumVertices() != 5 || g.NumEdges() != 4 {
		t.Fatalf("P5: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if g.Degree(0) != 1 || g.Degree(4) != 1 || g.Degree(2) != 2 {
		t.Error("path degree sequence wrong")
	}
	if Path(0).NumVertices() != 0 {
		t.Error("P0 should be empty")
	}
	if Path(1).NumEdges() != 0 {
		t.Error("P1 has no edges")
	}
}

func TestCycleGenerator(t *testing.T) {
	g := Cycle(6)
	if g.NumEdges() != 6 {
		t.Fatalf("C6 edges = %d", g.NumEdges())
	}
	if ok, d := g.IsRegular(); !ok || d != 2 {
		t.Error("cycle should be 2-regular")
	}
	// Degenerate sizes degrade to paths.
	if Cycle(2).NumEdges() != 1 {
		t.Error("Cycle(2) should fall back to one edge")
	}
}

func TestCompleteGenerator(t *testing.T) {
	g := Complete(6)
	if g.NumEdges() != 15 {
		t.Fatalf("K6 edges = %d, want 15", g.NumEdges())
	}
	if ok, d := g.IsRegular(); !ok || d != 5 {
		t.Error("K6 should be 5-regular")
	}
}

func TestStarAndWheel(t *testing.T) {
	s := Star(7)
	if s.Degree(0) != 6 || s.NumEdges() != 6 {
		t.Error("star shape wrong")
	}
	w := Wheel(6)
	if w.Degree(0) != 5 {
		t.Errorf("wheel hub degree = %d, want 5", w.Degree(0))
	}
	if w.NumEdges() != 10 {
		t.Errorf("W6 edges = %d, want 10", w.NumEdges())
	}
	for v := 1; v < 6; v++ {
		if w.Degree(v) != 3 {
			t.Errorf("rim vertex %d degree = %d, want 3", v, w.Degree(v))
		}
	}
}

func TestCompleteBipartiteGenerator(t *testing.T) {
	g := CompleteBipartite(3, 4)
	if g.NumVertices() != 7 || g.NumEdges() != 12 {
		t.Fatalf("K{3,4}: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if !g.IsBipartite() {
		t.Error("K{3,4} must be bipartite")
	}
	side, _ := g.Bipartition()
	for u := 0; u < 3; u++ {
		if side[u] != side[0] {
			t.Error("left side must be monochromatic")
		}
	}
}

func TestGridGenerator(t *testing.T) {
	g := Grid(3, 4)
	if g.NumVertices() != 12 {
		t.Fatalf("grid n = %d", g.NumVertices())
	}
	// Edges: 3*3 horizontal + 2*4 vertical = 17.
	if g.NumEdges() != 17 {
		t.Errorf("grid m = %d, want 17", g.NumEdges())
	}
	if !g.IsConnected() || !g.IsBipartite() {
		t.Error("grid must be connected and bipartite")
	}
}

func TestHypercubeGenerator(t *testing.T) {
	g := Hypercube(4)
	if g.NumVertices() != 16 || g.NumEdges() != 32 {
		t.Fatalf("Q4: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if ok, d := g.IsRegular(); !ok || d != 4 {
		t.Error("Q4 should be 4-regular")
	}
	if !g.IsConnected() {
		t.Error("Q4 must be connected")
	}
}

func TestPetersenGenerator(t *testing.T) {
	g := Petersen()
	if g.NumVertices() != 10 || g.NumEdges() != 15 {
		t.Fatalf("petersen: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if ok, d := g.IsRegular(); !ok || d != 3 {
		t.Error("petersen should be 3-regular")
	}
	if g.IsBipartite() {
		t.Error("petersen is not bipartite")
	}
	if !g.IsConnected() {
		t.Error("petersen must be connected")
	}
}

func TestPerfectMatchingGraphGenerator(t *testing.T) {
	g := PerfectMatchingGraph(8)
	if g.NumEdges() != 4 {
		t.Fatalf("edges = %d, want 4", g.NumEdges())
	}
	if ok, d := g.IsRegular(); !ok || d != 1 {
		t.Error("should be 1-regular")
	}
}

func TestRandomGNPDeterministicAndSimple(t *testing.T) {
	a := RandomGNP(30, 0.2, 7)
	b := RandomGNP(30, 0.2, 7)
	if a.NumEdges() != b.NumEdges() {
		t.Error("same seed must give same graph")
	}
	if a.NumEdges() == 0 {
		t.Error("expected some edges at p=0.2, n=30")
	}
	c := RandomGNP(30, 0.2, 8)
	if c.NumEdges() == a.NumEdges() && c.EncodeString() == a.EncodeString() {
		t.Error("different seeds should (overwhelmingly) differ")
	}
	if RandomGNP(10, 0, 1).NumEdges() != 0 {
		t.Error("p=0 must give no edges")
	}
	if g := RandomGNP(10, 1, 1); g.NumEdges() != 45 {
		t.Error("p=1 must give K10")
	}
}

func TestRandomBipartiteNoIsolated(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := RandomBipartite(8, 12, 0.05, seed)
		if g.HasIsolatedVertex() {
			t.Fatalf("seed %d produced an isolated vertex", seed)
		}
		if !g.IsBipartite() {
			t.Fatalf("seed %d produced a non-bipartite graph", seed)
		}
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 17, 40} {
		g := RandomTree(n, int64(n))
		wantEdges := n - 1
		if n == 0 || n == 1 {
			wantEdges = 0
		}
		if g.NumEdges() != wantEdges {
			t.Fatalf("n=%d: edges = %d, want %d", n, g.NumEdges(), wantEdges)
		}
		if n > 0 && !g.IsConnected() {
			t.Fatalf("n=%d: tree must be connected", n)
		}
	}
}

func TestRandomConnected(t *testing.T) {
	g := RandomConnected(25, 0.1, 3)
	if !g.IsConnected() {
		t.Fatal("must be connected")
	}
	if g.NumEdges() < 24 {
		t.Error("must contain at least the tree backbone")
	}
}

func TestRandomRegular(t *testing.T) {
	g, err := RandomRegular(12, 3, 5)
	if err != nil {
		t.Fatalf("RandomRegular: %v", err)
	}
	if ok, d := g.IsRegular(); !ok || d != 3 {
		t.Errorf("got irregular or wrong degree %d", d)
	}
	if _, err := RandomRegular(5, 3, 1); err == nil {
		t.Error("odd degree sum must fail")
	}
	if _, err := RandomRegular(4, 4, 1); err == nil {
		t.Error("d >= n must fail")
	}
}

func TestHeawoodGenerator(t *testing.T) {
	g := Heawood()
	if g.NumVertices() != 14 || g.NumEdges() != 21 {
		t.Fatalf("heawood: n=%d m=%d, want 14, 21", g.NumVertices(), g.NumEdges())
	}
	if ok, d := g.IsRegular(); !ok || d != 3 {
		t.Errorf("heawood should be 3-regular, got (%v,%d)", ok, d)
	}
	if !g.IsBipartite() {
		t.Error("heawood must be bipartite")
	}
	if !g.IsConnected() {
		t.Error("heawood must be connected")
	}
}

// RandomRegular returns a d-regular graph on n vertices drawn with the
// given seed, or an error if n*d is odd or d >= n; see Generator.Regular.
// Cost of Generator.Regular plus a one-shot generator allocation.
func RandomRegular(n, d int, seed int64) (*Graph, error) {
	return NewSeededGenerator(seed).Regular(n, d)
}

// Regular draws a d-regular graph on n vertices via the pairing model
// with restarts, or an error if n*d is odd or d >= n.
// Expected O(n·d) per attempt over a bounded number of pairing restarts;
// allocates the returned graph and the stub pool.
func (gen *Generator) Regular(n, d int) (*Graph, error) {
	if n*d%2 != 0 {
		return nil, fmt.Errorf("graph: no %d-regular graph on %d vertices (odd degree sum)", d, n)
	}
	if d >= n {
		return nil, fmt.Errorf("graph: degree %d too large for %d vertices", d, n)
	}
	const maxAttempts = 1000
	for attempt := 0; attempt < maxAttempts; attempt++ {
		g, ok := tryPairing(n, d, gen.rng)
		if ok {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: pairing model failed to produce a simple %d-regular graph on %d vertices", d, n)
}
