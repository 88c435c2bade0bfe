package matching

import (
	"fmt"

	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/obs"
)

// Hopcroft–Karp phase counter (catalogued in OBSERVABILITY.md): one phase
// per BFS layering that found at least one augmenting path; the algorithm
// guarantees O(sqrt n) phases, which this counter lets callers verify
// empirically (experiment E8).
var obsHKPhases = obs.Default().Counter("matching.hopcroftkarp.phases")

// HopcroftKarp computes a maximum matching of a bipartite graph in
// O(m sqrt n) time. The bipartition is supplied as side[v] in {0, 1}; use
// (*graph.Graph).Bipartition to obtain one. It returns the mate array.
//
// The function validates that side is a proper 2-coloring of g and returns
// an error otherwise, so callers cannot silently run it on an odd cycle.
// Allocates the mate array plus per-phase BFS/DFS scratch. The run is
// timed as the span "matching.hopcroftkarp" (histogram
// matching.hopcroftkarp.seconds).
func HopcroftKarp(g *graph.Graph, side []int) ([]int, error) {
	sp := obs.Default().StartSpan("matching.hopcroftkarp")
	defer sp.End()
	n := g.NumVertices()
	if len(side) != n {
		return nil, fmt.Errorf("matching: side array length %d, want %d", len(side), n)
	}
	for _, e := range g.Edges() {
		if side[e.U] == side[e.V] {
			return nil, fmt.Errorf("%w: edge %v has both endpoints on side %d", graph.ErrNotBipartite, e, side[e.U])
		}
	}
	for v := 0; v < n; v++ {
		if side[v] != 0 && side[v] != 1 {
			return nil, fmt.Errorf("matching: side[%d]=%d, want 0 or 1", v, side[v])
		}
	}

	mate := NewMateArray(n)
	var left []int
	for v := 0; v < n; v++ {
		if side[v] == 0 {
			left = append(left, v)
		}
	}

	const inf = int(^uint(0) >> 1)
	dist := make([]int, n)
	queue := make([]int, 0, n)

	// bfs layers the left vertices by shortest alternating-path distance
	// from the set of free left vertices; it reports whether a free right
	// vertex is reachable (i.e. an augmenting path exists).
	bfs := func() bool {
		queue = queue[:0]
		for _, v := range left {
			if mate[v] == Unmatched {
				dist[v] = 0
				queue = append(queue, v)
			} else {
				dist[v] = inf
			}
		}
		found := false
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			g.EachNeighbor(v, func(u int) {
				w := mate[u]
				if w == Unmatched {
					found = true
				} else if dist[w] == inf {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
			})
		}
		return found
	}

	// dfs searches for an augmenting path from left vertex v respecting the
	// BFS layering, flipping matched edges along the way.
	var dfs func(v int) bool
	dfs = func(v int) bool {
		for _, u := range g.Neighbors(v) {
			w := mate[u]
			if w == Unmatched || (dist[w] == dist[v]+1 && dfs(w)) {
				mate[v] = u
				mate[u] = v
				return true
			}
		}
		dist[v] = inf
		return false
	}

	for bfs() {
		obsHKPhases.Inc()
		for _, v := range left {
			if mate[v] == Unmatched {
				dfs(v)
			}
		}
	}
	return mate, nil
}

// MaximumBipartite computes a maximum matching of g, deriving the
// bipartition itself. It returns graph.ErrNotBipartite if g has an odd cycle.
// O(m sqrt n); allocates the side array plus HopcroftKarp's scratch.
func MaximumBipartite(g *graph.Graph) ([]int, error) {
	side, err := g.Bipartition()
	if err != nil {
		return nil, err
	}
	return HopcroftKarp(g, side)
}

// KonigVertexCover converts a maximum matching of a bipartite graph into a
// minimum vertex cover using König's theorem: starting from the free left
// vertices, alternate unmatched/matched edges; the cover is the unreachable
// left vertices plus the reachable right vertices.
//
// side must be the same 2-coloring the matching was computed with, and mate
// a *maximum* matching (the construction is only a vertex cover then).
// O(n + m); allocates the cover and the BFS scratch.
func KonigVertexCover(g *graph.Graph, side []int, mate []int) []int {
	n := g.NumVertices()
	reached := make([]bool, n)
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if side[v] == 0 && mate[v] == Unmatched {
			reached[v] = true
			queue = append(queue, v)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if side[v] == 0 {
			// Leave the left side via non-matching edges.
			g.EachNeighbor(v, func(u int) {
				if mate[v] != u && !reached[u] {
					reached[u] = true
					queue = append(queue, u)
				}
			})
		} else if w := mate[v]; w != Unmatched && !reached[w] {
			// Return to the left side via the matching edge.
			reached[w] = true
			queue = append(queue, w)
		}
	}
	var cover []int
	for v := 0; v < n; v++ {
		if (side[v] == 0 && !reached[v]) || (side[v] == 1 && reached[v]) {
			cover = append(cover, v)
		}
	}
	return cover
}
