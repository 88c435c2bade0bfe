package graph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestComplement(t *testing.T) {
	g := Cycle(5)
	c := g.Complement()
	if c.NumEdges() != 5 { // C(5,2) − 5
		t.Errorf("complement edges = %d, want 5", c.NumEdges())
	}
	// C5 is self-complementary.
	if ok, d := c.IsRegular(); !ok || d != 2 {
		t.Error("complement of C5 should be 2-regular")
	}
	if Complete(4).Complement().NumEdges() != 0 {
		t.Error("complement of a clique is edgeless")
	}
}

// Property: g and its complement partition the edge set of K_n.
func TestPropertyComplementPartitionsKn(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		g := RandomGNP(n, rng.Float64(), seed)
		c := g.Complement()
		if g.NumEdges()+c.NumEdges() != n*(n-1)/2 {
			return false
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if g.HasEdge(u, v) == c.HasEdge(u, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLineGraph(t *testing.T) {
	// L(P4) = P3.
	l := Path(4).LineGraph()
	if l.NumVertices() != 3 || l.NumEdges() != 2 {
		t.Errorf("L(P4): n=%d m=%d, want 3, 2", l.NumVertices(), l.NumEdges())
	}
	// L(C5) = C5.
	lc := Cycle(5).LineGraph()
	if lc.NumVertices() != 5 || lc.NumEdges() != 5 {
		t.Errorf("L(C5): n=%d m=%d, want 5, 5", lc.NumVertices(), lc.NumEdges())
	}
	if ok, d := lc.IsRegular(); !ok || d != 2 {
		t.Error("L(C5) should be a 5-cycle")
	}
	// L(K_{1,3}) = K3 (the star's edges pairwise intersect at the hub).
	ls := Star(4).LineGraph()
	if ls.NumEdges() != 3 {
		t.Errorf("L(K1,3) edges = %d, want 3", ls.NumEdges())
	}
}

// Property: |E(L(G))| = Σ_v C(deg v, 2).
func TestPropertyLineGraphEdgeCount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomGNP(2+rng.Intn(10), 0.4, seed)
		want := 0
		for v := 0; v < g.NumVertices(); v++ {
			d := g.Degree(v)
			want += d * (d - 1) / 2
		}
		return g.LineGraph().NumEdges() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDisjointUnion(t *testing.T) {
	u, offset := DisjointUnion(Cycle(3), Path(3))
	if offset != 3 {
		t.Errorf("offset = %d, want 3", offset)
	}
	if u.NumVertices() != 6 || u.NumEdges() != 5 {
		t.Errorf("union: n=%d m=%d, want 6, 5", u.NumVertices(), u.NumEdges())
	}
	if u.IsConnected() {
		t.Error("disjoint union must be disconnected")
	}
	if !u.HasEdge(3, 4) || u.HasEdge(2, 3) {
		t.Error("shifted edges wrong")
	}
}

func TestLadder(t *testing.T) {
	g := Ladder(4) // 2x4 grid
	if g.NumVertices() != 8 || g.NumEdges() != 10 {
		t.Errorf("ladder: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if !g.IsBipartite() || !g.IsConnected() {
		t.Error("ladder must be connected bipartite")
	}
}

func TestBarbell(t *testing.T) {
	g := Barbell(4)
	if g.NumVertices() != 8 || g.NumEdges() != 13 { // 2·C(4,2) + 1
		t.Errorf("barbell: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if !g.IsConnected() {
		t.Error("barbell must be connected")
	}
	if g.IsBipartite() {
		t.Error("barbell contains triangles")
	}
}

func TestLollipop(t *testing.T) {
	g := Lollipop(4, 3)
	if g.NumVertices() != 7 || g.NumEdges() != 9 { // C(4,2) + 3
		t.Errorf("lollipop: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if !g.IsConnected() {
		t.Error("lollipop must be connected")
	}
	if g.Degree(6) != 1 {
		t.Error("path tip must be a leaf")
	}
}

func TestCompleteBinaryTree(t *testing.T) {
	g := CompleteBinaryTree(4)
	if g.NumVertices() != 15 || g.NumEdges() != 14 {
		t.Errorf("binary tree: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if !g.IsConnected() || !g.IsBipartite() {
		t.Error("tree must be connected and bipartite")
	}
	if g.Degree(0) != 2 {
		t.Error("root has two children")
	}
	if CompleteBinaryTree(0).NumVertices() != 0 {
		t.Error("zero levels = empty graph")
	}
	if CompleteBinaryTree(1).NumVertices() != 1 {
		t.Error("one level = single root")
	}
}

func TestCaterpillar(t *testing.T) {
	g := Caterpillar(4, 2)
	if g.NumVertices() != 12 || g.NumEdges() != 11 { // a tree
		t.Errorf("caterpillar: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if !g.IsConnected() {
		t.Error("caterpillar must be connected")
	}
	for i := 0; i < 4; i++ {
		want := 2 + 2 // legs + spine neighbors
		if i == 0 || i == 3 {
			want = 2 + 1
		}
		if g.Degree(i) != want {
			t.Errorf("spine %d degree = %d, want %d", i, g.Degree(i), want)
		}
	}
}

func TestMustEdge(t *testing.T) {
	g := Path(3)
	if e := g.MustEdge(1, 0); e != NewEdge(0, 1) {
		t.Errorf("MustEdge = %v", e)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustEdge on absent edge must panic")
		}
	}()
	g.MustEdge(0, 2)
}

// Complement returns the simple complement of g: same vertices, an edge
// exactly where g has none.
// O(n^2) insertions; allocates the returned graph.
func (g *Graph) Complement() *Graph {
	c := New(g.n)
	for u := 0; u < g.n; u++ {
		for v := u + 1; v < g.n; v++ {
			if !g.HasEdge(u, v) {
				c.mustAddEdge(u, v)
			}
		}
	}
	return c
}

// LineGraph returns L(G): one vertex per edge of g (indexed by edge id),
// with two vertices adjacent iff the underlying edges share an endpoint.
// Defender tuples of Π_k(G) correspond to k-vertex subsets of L(G);
// tuples of pairwise disjoint edges correspond to independent sets.
// O(Σ d(v)^2) insertions; allocates the returned graph.
func (g *Graph) LineGraph() *Graph {
	m := g.NumEdges()
	l := New(m)
	for i := 0; i < m; i++ {
		ei := g.EdgeByID(i)
		for j := i + 1; j < m; j++ {
			ej := g.EdgeByID(j)
			if ej.Has(ei.U) || ej.Has(ei.V) {
				l.mustAddEdge(i, j)
			}
		}
	}
	return l
}

// MustEdge returns the edge {u, v} of g, panicking if absent — a test and
// example helper for statically-known edges.
// O(1) expected, does not allocate (panics on a missing edge).
func (g *Graph) MustEdge(u, v int) Edge {
	if !g.HasEdge(u, v) {
		panic(fmt.Sprintf("graph: edge (%d,%d) not present", u, v))
	}
	return NewEdge(u, v)
}
