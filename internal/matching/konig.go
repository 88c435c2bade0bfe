package matching

import "github.com/defender-game/defender/internal/graph"

// KonigVertexCover converts a maximum matching of a bipartite graph into a
// minimum vertex cover using König's theorem: starting from the free left
// vertices, alternate unmatched/matched edges; the cover is the unreachable
// left vertices plus the reachable right vertices, in ascending order.
//
// side is a 2-coloring of g (side[v] in {0, 1}, e.g. from
// (*graph.Graph).Bipartition) and mate a *maximum* matching of g, such as
// Maximum's: the construction is only a vertex cover then. The cover
// depends on side but not on which maximum matching is passed — the
// vertices an alternating path reaches from a free left vertex are the
// same for every maximum matching (Dulmage–Mendelsohn).
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
			for _, u := range g.Neighbors(v) {
				if mate[v] != u && !reached[u] {
					reached[u] = true
					queue = append(queue, u)
				}
			}
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
