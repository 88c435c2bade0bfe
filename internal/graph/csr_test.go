package graph

import (
	"errors"
	"reflect"
	"testing"
)

// csrCorpus returns the seeded mixed corpus the CSR properties are tested
// over: named families plus random graphs of every generator family.
func csrCorpus() map[string]*Graph {
	corpus := map[string]*Graph{
		"empty":       New(0),
		"isolated3":   New(3),
		"path7":       Path(7),
		"cycle8":      Cycle(8),
		"cycle9":      Cycle(9),
		"complete6":   Complete(6),
		"star9":       Star(9),
		"wheel8":      Wheel(8),
		"k33":         CompleteBipartite(3, 3),
		"k27":         CompleteBipartite(2, 7),
		"grid45":      Grid(4, 5),
		"hypercube4":  Hypercube(4),
		"petersen":    Petersen(),
		"heawood":     Heawood(),
		"matching10":  PerfectMatchingGraph(10),
		"caterpillar": Caterpillar(5, 2),
		"binarytree3": CompleteBinaryTree(3),
	}
	gen := NewSeededGenerator(7)
	corpus["gnp30"] = gen.GNP(30, 0.2)
	corpus["gnp50sparse"] = gen.GNP(50, 0.05)
	corpus["bip20"] = gen.Bipartite(10, 10, 0.3)
	corpus["tree40"] = gen.Tree(40)
	corpus["connected25"] = gen.Connected(25, 0.1)
	corpus["ba60"] = gen.BarabasiAlbert(60, 3)
	corpus["ws40"] = gen.WattsStrogatz(40, 4, 0.2)
	return corpus
}

func edgeSet(g *Graph) map[Edge]bool {
	set := make(map[Edge]bool, g.NumEdges())
	for _, e := range g.Edges() {
		set[e] = true
	}
	return set
}

// TestCSRRoundTripPreservesEdges is the conversion property test:
// ToGraph(FromGraph(g)) has exactly g's edge set on every corpus graph.
func TestCSRRoundTripPreservesEdges(t *testing.T) {
	for name, g := range csrCorpus() {
		c := FromGraph(g)
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: FromGraph invalid: %v", name, err)
		}
		back := c.ToGraph()
		if back.NumVertices() != g.NumVertices() {
			t.Fatalf("%s: round-trip n=%d, want %d", name, back.NumVertices(), g.NumVertices())
		}
		if !reflect.DeepEqual(edgeSet(back), edgeSet(g)) {
			t.Fatalf("%s: round-trip changed the edge set", name)
		}
	}
}

func TestCSRBasicQueriesAgreeWithGraph(t *testing.T) {
	for name, g := range csrCorpus() {
		c := FromGraph(g)
		if c.NumVertices() != g.NumVertices() || c.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: dims (%d,%d), want (%d,%d)", name, c.NumVertices(), c.NumEdges(), g.NumVertices(), g.NumEdges())
		}
		if c.HasIsolatedVertex() != g.HasIsolatedVertex() {
			t.Fatalf("%s: HasIsolatedVertex disagrees", name)
		}
		if c.MaxDegree() != g.MaxDegree() {
			t.Fatalf("%s: MaxDegree %d, want %d", name, c.MaxDegree(), g.MaxDegree())
		}
		for v := 0; v < g.NumVertices(); v++ {
			if c.Degree(v) != g.Degree(v) {
				t.Fatalf("%s: degree of %d is %d, want %d", name, v, c.Degree(v), g.Degree(v))
			}
			row := c.Neighbors(v)
			want := g.Neighbors(v)
			if len(row) != len(want) {
				t.Fatalf("%s: neighbor row of %d has %d entries, want %d", name, v, len(row), len(want))
			}
			for i := range row {
				if int(row[i]) != want[i] {
					t.Fatalf("%s: neighbors of %d diverge at %d", name, v, i)
				}
			}
		}
		for u := 0; u < g.NumVertices(); u++ {
			for v := 0; v < g.NumVertices(); v++ {
				if c.HasEdge(u, v) != g.HasEdge(u, v) {
					t.Fatalf("%s: HasEdge(%d,%d) disagrees", name, u, v)
				}
			}
		}
	}
}

func TestCSREachEdgeVisitsEveryEdgeOnce(t *testing.T) {
	g := NewSeededGenerator(3).GNP(25, 0.3)
	c := FromGraph(g)
	seen := make(map[Edge]int)
	var prev Edge
	first := true
	c.EachEdge(func(u, v int32) {
		if u >= v {
			t.Fatalf("EachEdge emitted (%d,%d) without u < v", u, v)
		}
		e := Edge{U: int(u), V: int(v)}
		if !first && (e.U < prev.U || (e.U == prev.U && e.V <= prev.V)) {
			t.Fatalf("EachEdge order violated: %v after %v", e, prev)
		}
		prev, first = e, false
		seen[e]++
	})
	for e, count := range seen {
		if count != 1 {
			t.Fatalf("edge %v visited %d times", e, count)
		}
	}
	if len(seen) != g.NumEdges() {
		t.Fatalf("visited %d edges, want %d", len(seen), g.NumEdges())
	}
}

func TestBuildCSRRejectsInvalidInput(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		us, vs []int32
		want   error
	}{
		{"range", 3, []int32{0}, []int32{3}, ErrVertexRange},
		{"negative", 3, []int32{-1}, []int32{1}, ErrVertexRange},
		{"selfloop", 3, []int32{1}, []int32{1}, ErrSelfLoop},
		{"dup", 3, []int32{0, 0}, []int32{1, 1}, ErrDuplicateEdge},
		{"dup-flipped", 3, []int32{0, 1}, []int32{1, 0}, ErrDuplicateEdge},
	}
	for _, tc := range cases {
		if _, err := BuildCSR(tc.n, tc.us, tc.vs); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, err := BuildCSR(3, []int32{0}, nil); err == nil {
		t.Error("mismatched endpoint slices accepted")
	}
}

func TestBuildCSRMatchesFromGraph(t *testing.T) {
	g := NewSeededGenerator(11).Connected(40, 0.1)
	var us, vs []int32
	for _, e := range g.Edges() {
		us = append(us, int32(e.U))
		vs = append(vs, int32(e.V))
	}
	built, err := BuildCSR(g.NumVertices(), us, vs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(built, FromGraph(g)) {
		t.Fatal("BuildCSR and FromGraph disagree on the same edge list")
	}
}

// TestCSRBipartitionAgreesWithGraph checks the CSR 2-coloring against
// the dense one on the corpus, whose odd cycles (cycle9, complete6,
// petersen) must each be rejected with ErrNotBipartite.
func TestCSRBipartitionAgreesWithGraph(t *testing.T) {
	rejected := 0
	for name, g := range csrCorpus() {
		c := FromGraph(g)
		side, err := c.Bipartition()
		if (err == nil) != g.IsBipartite() {
			t.Fatalf("%s: CSR bipartite=%v, dense=%v", name, err == nil, g.IsBipartite())
		}
		if err != nil {
			if !errors.Is(err, ErrNotBipartite) {
				t.Fatalf("%s: error not ErrNotBipartite: %v", name, err)
			}
			rejected++
			continue
		}
		for _, e := range g.Edges() {
			if side[e.U] == side[e.V] {
				t.Fatalf("%s: edge %v not cross-sided", name, e)
			}
		}
	}
	if rejected == 0 {
		t.Fatal("corpus has no odd cycle: ErrNotBipartite went untested")
	}
}

func TestBarabasiAlbertBipartiteCSR(t *testing.T) {
	for _, n := range []int{2, 3, 10, 500} {
		c := NewSeededGenerator(5).BarabasiAlbertBipartiteCSR(n, 3)
		if err := c.Validate(); err != nil {
			t.Fatalf("n=%d: invalid CSR: %v", n, err)
		}
		if c.NumVertices() != n {
			t.Fatalf("n=%d: got %d vertices", n, c.NumVertices())
		}
		if c.HasIsolatedVertex() {
			t.Fatalf("n=%d: isolated vertex", n)
		}
		side, err := c.Bipartition()
		if err != nil {
			t.Fatalf("n=%d: not bipartite: %v", n, err)
		}
		for v := 0; v < n; v++ {
			// Construction promises the parity sides; BFS recolors per
			// component, but the graph is connected so colors are the
			// parity classes up to a global flip.
			if (side[v] == side[0]) != (v%2 == 0) {
				t.Fatalf("n=%d: vertex %d not on its parity side", n, v)
			}
		}
	}
}

func TestBarabasiAlbertCSRIsValidAndDeterministic(t *testing.T) {
	a := NewSeededGenerator(9).BarabasiAlbertCSR(300, 3)
	b := NewSeededGenerator(9).BarabasiAlbertCSR(300, 3)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.HasIsolatedVertex() {
		t.Fatal("isolated vertex in BA CSR")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different BA CSR graphs")
	}
	if c := NewSeededGenerator(10).BarabasiAlbertCSR(300, 3); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical BA CSR graphs")
	}
}

func TestBitset(t *testing.T) {
	b := NewBitset(130)
	for _, v := range []int32{0, 63, 64, 129} {
		if b.Has(v) {
			t.Fatalf("fresh bitset has %d", v)
		}
		b.Set(v)
		if !b.Has(v) {
			t.Fatalf("bitset lost %d", v)
		}
	}
	if b.Has(1) || b.Has(65) {
		t.Fatal("bitset reports unset values")
	}
	b.Reset()
	for _, v := range []int32{0, 63, 64, 129} {
		if b.Has(v) {
			t.Fatalf("reset bitset still has %d", v)
		}
	}
}
