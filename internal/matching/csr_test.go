package matching

import (
	"errors"
	"fmt"
	"testing"

	"github.com/defender-game/defender/internal/graph"
)

// goldenBipartite is the golden corpus of bipartite graphs the CSR and
// dense Hopcroft–Karp implementations are differentially tested on: named
// families with known matching numbers plus seeded random families.
func goldenBipartite() map[string]*graph.Graph {
	corpus := map[string]*graph.Graph{
		"empty":      graph.New(0),
		"isolated4":  graph.New(4),
		"single":     graph.Path(2),
		"path7":      graph.Path(7),
		"path8":      graph.Path(8),
		"cycle10":    graph.Cycle(10),
		"star9":      graph.Star(9),
		"k33":        graph.CompleteBipartite(3, 3),
		"k27":        graph.CompleteBipartite(2, 7),
		"k55":        graph.CompleteBipartite(5, 5),
		"grid45":     graph.Grid(4, 5),
		"hypercube4": graph.Hypercube(4),
		"heawood":    graph.Heawood(),
		"matching12": graph.PerfectMatchingGraph(12),
		"tree3":      graph.CompleteBinaryTree(3),
		"cater":      graph.Caterpillar(6, 2),
	}
	gen := graph.NewSeededGenerator(13)
	for i := 0; i < 6; i++ {
		corpus[fmt.Sprintf("bip%d", i)] = gen.Bipartite(8+3*i, 8+2*i, 0.25)
	}
	for i := 0; i < 4; i++ {
		corpus[fmt.Sprintf("tree%d", i)] = gen.Tree(20 + 10*i)
	}
	corpus["baBip"] = gen.BarabasiAlbertBipartiteCSR(200, 3).ToGraph()
	return corpus
}

// TestHopcroftKarpCSRMatchesDense is the differential acceptance test: on
// every golden graph the CSR and dense Hopcroft–Karp return matchings of
// equal cardinality, and the CSR matching is a valid matching of the graph.
func TestHopcroftKarpCSRMatchesDense(t *testing.T) {
	for name, g := range goldenBipartite() {
		denseMate, err := MaximumBipartite(g)
		if err != nil {
			t.Fatalf("%s: dense: %v", name, err)
		}
		c := graph.FromGraph(g)
		mate, side, err := MaximumBipartiteCSR(c)
		if err != nil {
			t.Fatalf("%s: csr: %v", name, err)
		}
		if got, want := SizeCSR(mate), Size(denseMate); got != want {
			t.Errorf("%s: CSR matching size %d, dense %d", name, got, want)
		}
		for v := range mate {
			u := mate[v]
			if u == Unmatched {
				continue
			}
			if int(mate[u]) != v {
				t.Fatalf("%s: mate not symmetric at %d<->%d", name, v, u)
			}
			if !g.HasEdge(v, int(u)) {
				t.Fatalf("%s: pair (%d,%d) is not an edge", name, v, u)
			}
		}
		// König duality on the sparse path: |cover| = |matching| and the
		// cover covers every edge.
		cover := KonigVertexCoverCSR(c, side, mate)
		if len(cover) != SizeCSR(mate) {
			t.Errorf("%s: König cover size %d != matching size %d", name, len(cover), SizeCSR(mate))
		}
		in := make(map[int]bool, len(cover))
		for _, v := range cover {
			in[int(v)] = true
		}
		for _, e := range g.Edges() {
			if !in[e.U] && !in[e.V] {
				t.Fatalf("%s: edge %v uncovered by König cover", name, e)
			}
		}
	}
}

// TestHopcroftKarpCSRValidation checks the bipartite entry point rejects
// an odd cycle with graph.ErrNotBipartite and matches an even path
// perfectly.
func TestHopcroftKarpCSRValidation(t *testing.T) {
	if _, _, err := MaximumBipartiteCSR(graph.FromGraph(graph.Cycle(5))); !errors.Is(err, graph.ErrNotBipartite) {
		t.Errorf("odd cycle accepted: %v", err)
	}
	mate, _, err := MaximumBipartiteCSR(graph.FromGraph(graph.Path(4)))
	if err != nil {
		t.Fatal(err)
	}
	if SizeCSR(mate) != 2 {
		t.Errorf("P4 matching size %d, want 2", SizeCSR(mate))
	}
}

// TestHopcroftKarpCSRSubgraph checks the SDR entry point: excluded
// vertices (side -1) stay unmatched, same-side edges are ignored rather
// than rejected, and the cross-edge subgraph is matched maximally.
func TestHopcroftKarpCSRSubgraph(t *testing.T) {
	// K4 with side = {0, 1, 1, -1}: cross edges are (0,1) and (0,2); the
	// same-side edge (1,2) and everything touching 3 must be ignored.
	c := graph.FromGraph(graph.Complete(4))
	mate := HopcroftKarpCSRSubgraph(c, []int8{0, 1, 1, -1})
	if SizeCSR(mate) != 1 {
		t.Fatalf("matching size %d, want 1", SizeCSR(mate))
	}
	if mate[3] != Unmatched {
		t.Fatal("excluded vertex matched")
	}
	if mate[0] != 1 && mate[0] != 2 {
		t.Fatalf("vertex 0 matched to %d, want 1 or 2", mate[0])
	}
	// A perfect SDR case: C6 with alternating sides saturates side 0.
	c6 := graph.FromGraph(graph.Cycle(6))
	mate = HopcroftKarpCSRSubgraph(c6, []int8{0, 1, 0, 1, 0, 1})
	if SizeCSR(mate) != 3 {
		t.Fatalf("C6 matching size %d, want 3", SizeCSR(mate))
	}
}

// TestHopcroftKarpCSRLarge exercises the iterative DFS and bitset frontier
// machinery on an instance deep enough to need several phases.
func TestHopcroftKarpCSRLarge(t *testing.T) {
	c := graph.NewSeededGenerator(17).BarabasiAlbertBipartiteCSR(20000, 3)
	mate, side, err := MaximumBipartiteCSR(c)
	if err != nil {
		t.Fatal(err)
	}
	size := SizeCSR(mate)
	if size == 0 {
		t.Fatal("empty matching on a connected graph")
	}
	cover := KonigVertexCoverCSR(c, side, mate)
	if len(cover) != size {
		t.Fatalf("König duality violated: cover %d, matching %d", len(cover), size)
	}
	covered := graph.NewBitset(c.NumVertices())
	for _, v := range cover {
		covered.Set(v)
	}
	c.EachEdge(func(u, v int32) {
		if !covered.Has(u) && !covered.Has(v) {
			t.Fatalf("edge (%d,%d) uncovered", u, v)
		}
	})
}
