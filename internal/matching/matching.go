// Package matching implements the matching algorithms the equilibrium
// constructions depend on. Every dense solve computes one maximum
// matching with Edmonds' blossom algorithm (Maximum, O(n^3)) and reads
// everything from it: the edge-cover number rho = n - |M| (Gallai,
// Corollary 3.2), the Corollary 4.11 partition — König's vertex cover
// (KonigVertexCover) on bipartite graphs, the König–Egerváry 2-SAT
// otherwise — and the perfect-matching equilibrium family. The sparse
// path matches bipartite CSR graphs with Hopcroft–Karp
// (MaximumBipartiteCSR, O(m sqrt n), the bound Theorem 5.1 quotes), and
// Kuhn-style systems of distinct representatives decide the VC-expander
// condition of Corollary 4.11 via Hall's theorem.
//
// Dense matchings are mate arrays: mate[v] is the partner of v or
// Unmatched. The helpers in this file convert, copy and validate them.
package matching

import (
	"fmt"

	"github.com/defender-game/defender/internal/graph"
)

// Unmatched marks a vertex without a partner in a mate array.
const Unmatched = -1

// NewMateArray returns a mate array of length n with every vertex unmatched.
// O(n); allocates the array.
func NewMateArray(n int) []int {
	mate := make([]int, n)
	for i := range mate {
		mate[i] = Unmatched
	}
	return mate
}

// Size returns the number of edges in the matching encoded by mate.
// O(n), does not allocate.
func Size(mate []int) int {
	c := 0
	for v, u := range mate {
		if u != Unmatched && u > v {
			c++
		}
	}
	return c
}

// Edges converts a mate array into a normalized edge list. O(n);
// allocates the list.
func Edges(mate []int) []graph.Edge {
	var out []graph.Edge
	for v, u := range mate {
		if u != Unmatched && u > v {
			out = append(out, graph.NewEdge(v, u))
		}
	}
	return out
}

// Greedy returns a maximal (not necessarily maximum) matching of g, built by
// scanning the edge list once. Useful as a fast 2-approximation and as a
// warm start for the exact algorithms. O(n + m); allocates the mate array
// and the edge-list copy it scans.
func Greedy(g *graph.Graph) []int {
	mate := NewMateArray(g.NumVertices())
	for _, e := range g.Edges() {
		if mate[e.U] == Unmatched && mate[e.V] == Unmatched {
			mate[e.U] = e.V
			mate[e.V] = e.U
		}
	}
	return mate
}

// Verify checks that mate is a well-formed symmetric mate array over edges
// of g. It is used by tests and by debug assertions. O(n) expected
// (edge-map lookups); does not allocate beyond the returned error.
func Verify(g *graph.Graph, mate []int) error {
	if len(mate) != g.NumVertices() {
		return fmt.Errorf("matching: mate array length %d, want %d", len(mate), g.NumVertices())
	}
	for v, u := range mate {
		if u == Unmatched {
			continue
		}
		if u < 0 || u >= len(mate) {
			return fmt.Errorf("matching: mate[%d]=%d out of range", v, u)
		}
		if mate[u] != v {
			return fmt.Errorf("matching: mate not symmetric at %d<->%d", v, u)
		}
		if !g.HasEdge(v, u) {
			return fmt.Errorf("matching: pair (%d,%d) is not an edge", v, u)
		}
	}
	return nil
}
