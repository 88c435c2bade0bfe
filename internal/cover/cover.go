// Package cover implements the covering machinery of the paper: minimum edge
// covers (pure equilibria, Theorem 3.1 and Corollary 3.2), vertex covers and
// independent sets (the support structure of matching equilibria), the
// VC-expander conditions of Corollary 4.11, and the search for independent
// set / vertex cover partitions that admit k-matching Nash equilibria.
package cover

import (
	"context"
	"errors"
	"fmt"

	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/matching"
	"github.com/defender-game/defender/internal/obs"
)

// Edge-cover build counter (catalogued in OBSERVABILITY.md): one per
// minimum edge cover extended from a maximum matching.
var obsEdgeCoversBuilt = obs.Default().Counter("cover.edge_covers_built")

// Sentinel errors for cover computations.
var (
	// ErrIsolatedVertex is returned when an edge cover is requested for a
	// graph with an isolated vertex (no edge can cover it).
	ErrIsolatedVertex = errors.New("cover: graph has an isolated vertex, no edge cover exists")
	// ErrNoPartition is returned when it is proven that no independent set /
	// expander partition exists (so no k-matching equilibrium exists).
	ErrNoPartition = errors.New("cover: no matching-equilibrium partition exists")
	// ErrPartitionNotFound is returned when the sparse greedy search
	// (FindNEPartitionCSR on a non-bipartite graph) gives up without proving
	// non-existence.
	ErrPartitionNotFound = errors.New("cover: heuristic search found no matching-equilibrium partition")
	// ErrTooLarge is returned by exact (exponential) procedures invoked on
	// graphs beyond their configured size limit.
	ErrTooLarge = errors.New("cover: graph too large for exact enumeration")
)

// IsEdgeCover reports whether edges covers every vertex of g, i.e. each
// vertex of g is an endpoint of some listed edge. All listed edges must
// belong to g. O(n + |edges|) expected; allocates the covered bitmap.
func IsEdgeCover(g *graph.Graph, edges []graph.Edge) bool {
	n := g.NumVertices()
	covered := make([]bool, n)
	for _, e := range edges {
		if g.EdgeID(e) < 0 {
			return false
		}
		covered[e.U] = true
		covered[e.V] = true
	}
	for _, c := range covered {
		if !c {
			return false
		}
	}
	return true
}

// MinimumEdgeCover computes a minimum edge cover of g using Gallai's
// identity rho(G) = n - mu(G): take a maximum matching and extend every
// unmatched vertex with one arbitrary incident edge (Norman–Rabin). The
// maximum matching is computed with Edmonds' blossom algorithm, so g may be
// non-bipartite. Returns ErrIsolatedVertex if some vertex has degree 0.
// O(n^3) (blossom-dominated); allocates the cover and the matching state.
// Sparse path: cover.MinimumEdgeCoverCSRFromMatching.
func MinimumEdgeCover(g *graph.Graph) ([]graph.Edge, error) {
	return minimumEdgeCover(context.Background(), g)
}

// minimumEdgeCover is MinimumEdgeCover under ctx's trace: the
// Gallai-identity construction (blossom matching + Norman–Rabin
// extension) is timed as the span "cover.gallai" (histogram
// cover.gallai.seconds), with the blossom leg visible inside it as
// "matching.maximum".
func minimumEdgeCover(ctx context.Context, g *graph.Graph) ([]graph.Edge, error) {
	sp, ctx := obs.Default().StartSpanCtx(ctx, "cover.gallai")
	defer sp.End()
	if g.HasIsolatedVertex() {
		return nil, ErrIsolatedVertex
	}
	return minimumEdgeCoverFromMatching(g, matching.MaximumCtx(ctx, g))
}

// minimumEdgeCoverFromMatching extends an already-computed maximum matching
// of g (as a mate array) into a minimum edge cover, skipping the blossom
// recomputation, for callers that already hold the matching. mate must be a maximum matching of g (Gallai's identity
// only holds then) and g must have no isolated vertex. O(n + m);
// allocates the cover list and per-vertex neighbor copies.
func minimumEdgeCoverFromMatching(g *graph.Graph, mate []int) ([]graph.Edge, error) {
	if g.HasIsolatedVertex() {
		return nil, ErrIsolatedVertex
	}
	if len(mate) != g.NumVertices() {
		return nil, fmt.Errorf("cover: mate array has length %d, want %d", len(mate), g.NumVertices())
	}
	obsEdgeCoversBuilt.Inc()
	cover := matching.Edges(mate)
	for v := 0; v < g.NumVertices(); v++ {
		if mate[v] == matching.Unmatched {
			// Any incident edge will do; the neighbor is necessarily
			// matched (otherwise the matching would not be maximum).
			u := g.Neighbors(v)[0]
			cover = append(cover, graph.NewEdge(v, u))
		}
	}
	return cover, nil
}

// EdgeCoverNumber returns rho(G), the size of a minimum edge cover, or an
// error if none exists. Cost of MinimumEdgeCover: O(n^3), allocates the
// cover it then discards.
func EdgeCoverNumber(g *graph.Graph) (int, error) {
	return EdgeCoverNumberCtx(context.Background(), g)
}

// EdgeCoverNumberCtx is EdgeCoverNumber under ctx's trace: the cover is
// built inside the span "cover.gallai".
func EdgeCoverNumberCtx(ctx context.Context, g *graph.Graph) (int, error) {
	ec, err := minimumEdgeCover(ctx, g)
	if err != nil {
		return 0, err
	}
	return len(ec), nil
}

// HasEdgeCoverOfSize reports whether g has an edge cover with exactly k
// edges. Because any edge cover can be padded with extra edges, this holds
// iff rho(G) <= k <= m. This is the existence test of Theorem 3.1.
// Cost of EdgeCoverNumber: O(n^3) and its allocations.
func HasEdgeCoverOfSize(g *graph.Graph, k int) (bool, error) {
	if k < 0 || k > g.NumEdges() {
		return false, nil
	}
	rho, err := EdgeCoverNumber(g)
	if err != nil {
		if errors.Is(err, ErrIsolatedVertex) {
			return false, nil
		}
		return false, err
	}
	return rho <= k, nil
}

// EdgeCoverOfSize returns an edge cover with exactly k edges, built by
// padding a minimum edge cover with arbitrary unused edges. It returns an
// error when rho(G) > k or k > m. O(n^3 + m) (blossom-dominated);
// allocates the cover and a membership map.
func EdgeCoverOfSize(g *graph.Graph, k int) ([]graph.Edge, error) {
	if k > g.NumEdges() {
		return nil, fmt.Errorf("cover: requested cover size %d exceeds edge count %d", k, g.NumEdges())
	}
	ec, err := MinimumEdgeCover(g)
	if err != nil {
		return nil, err
	}
	if len(ec) > k {
		return nil, fmt.Errorf("cover: minimum edge cover has %d edges > requested %d", len(ec), k)
	}
	in := make(map[graph.Edge]bool, len(ec))
	for _, e := range ec {
		in[e] = true
	}
	for _, e := range g.Edges() {
		if len(ec) == k {
			break
		}
		if !in[e] {
			in[e] = true
			ec = append(ec, e)
		}
	}
	return ec, nil
}

// IsVertexCoverOfEdges reports whether vs covers every edge in the list,
// i.e. vs is a vertex cover of the graph obtained by the edge set (condition
// 1 of Theorem 3.4 and condition (iii) of Lemma 2.1). O(n + |edges|);
// allocates the membership bitmap.
func IsVertexCoverOfEdges(n int, edges []graph.Edge, vs []int) bool {
	member := membership(n, vs)
	for _, e := range edges {
		if !member[e.U] && !member[e.V] {
			return false
		}
	}
	return true
}

// IsIndependentSet reports whether no edge of g joins two vertices of vs.
// O(n + m); allocates a membership bitmap and the edge-list copy.
func IsIndependentSet(g *graph.Graph, vs []int) bool {
	member := membership(g.NumVertices(), vs)
	for _, e := range g.Edges() {
		if member[e.U] && member[e.V] {
			return false
		}
	}
	return true
}

// MinimumVertexCoverBipartite computes a minimum vertex cover of a bipartite
// graph: König's theorem (matching.KonigVertexCover) over the blossom
// maximum matching, O(n^3). It returns graph.ErrNotBipartite for graphs
// with odd cycles. Allocates the ascending cover plus the matching
// scratch. The O(m sqrt n) route of Theorem 5.1 is the sparse one:
// matching.KonigVertexCoverCSR over matching.MaximumBipartiteCSR.
func MinimumVertexCoverBipartite(g *graph.Graph) ([]int, error) {
	side, err := g.Bipartition()
	if err != nil {
		return nil, err
	}
	return matching.KonigVertexCover(g, side, matching.Maximum(g)), nil
}

// membership converts a vertex list into a boolean lookup of length n.
func membership(n int, vs []int) []bool {
	member := make([]bool, n)
	for _, v := range vs {
		if v >= 0 && v < n {
			member[v] = true
		}
	}
	return member
}
