package matching

import (
	"sort"

	"github.com/defender-game/defender/internal/graph"
)

// Representatives finds a system of distinct representatives (SDR) for the
// vertex set s: an injective assignment rep[v] for each v in s, where rep[v]
// is a neighbor of v in g satisfying the allowed predicate. By Hall's
// theorem an SDR exists iff |Neigh(X) ∩ allowed| >= |X| for every X ⊆ s.
//
// On success it returns (rep, nil). On failure it returns (nil, violator)
// where violator ⊆ s is a concrete Hall violator: a set X with
// |Neigh(X) ∩ allowed| < |X|, extracted from the failed alternating search.
//
// This is the decision procedure for the paper's expander conditions
// (Corollary 4.11): g is a "VC-expander" in the sense required by the
// matching-equilibrium constructions exactly when VC has an SDR into IS.
// Passing allowed == nil permits every vertex of g as a representative,
// which decides the literal S-expander definition of the paper's Section 2.
//
// The implementation is Kuhn's augmenting-path algorithm, O(|s| * m); it
// allocates the assignment map and O(n) search scratch. It walks g's
// adjacency in place, and a search marks the vertices it reaches with its
// own stamp, so no step copies a list or clears an array. Note
// that a vertex of s may itself serve as a representative of another vertex
// of s (the left and right sides of the auxiliary bipartite structure are
// disjoint copies), which is exactly what the literal definition asks for.
func Representatives(g *graph.Graph, s []int, allowed func(int) bool) (map[int]int, []int) {
	s = graph.NormalizeSet(s)
	n := g.NumVertices()
	// owner[v] = index into s of the set member currently represented by v.
	owner := make([]int, n)
	for i := range owner {
		owner[i] = Unmatched
	}
	// seen[u] == stamp marks right-side vertices reached by the current
	// search; search i uses stamp i+1, so the zero value marks nothing.
	seen := make([]int, n)
	stamp := 0

	var tryAssign func(i int) bool
	tryAssign = func(i int) bool {
		for _, u := range g.Neighbors(s[i]) {
			if seen[u] == stamp || (allowed != nil && !allowed(u)) {
				continue
			}
			seen[u] = stamp
			if owner[u] == Unmatched || tryAssign(owner[u]) {
				owner[u] = i
				return true
			}
		}
		return false
	}

	for i := range s {
		stamp = i + 1
		if tryAssign(i) {
			continue
		}
		// Hall violator: s[i] plus the owners of every right vertex the
		// failed search reached. All their permitted neighbors are reached
		// and matched within the violator minus s[i].
		violator := []int{s[i]}
		for u := 0; u < n; u++ {
			if seen[u] == stamp && owner[u] != Unmatched {
				violator = append(violator, s[owner[u]])
			}
		}
		sort.Ints(violator)
		return nil, violator
	}

	rep := make(map[int]int, len(s))
	for u := 0; u < n; u++ {
		if owner[u] != Unmatched {
			rep[s[owner[u]]] = u
		}
	}
	return rep, nil
}
