package cover

import (
	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/matching"
)

// The paper (Section 2) defines: G is an S-expander if for every X ⊆ S,
// |X| <= |Neigh_G(X)|. Taken literally, Neigh_G(X) may intersect S itself.
// The matching-equilibrium constructions (Lemma 2.1, Theorem 2.2, Corollary
// 4.11) actually require the stronger, IS-restricted condition
// |X| <= |Neigh_G(X) ∩ IS| for every X ⊆ VC, which by Hall's theorem is
// equivalent to a system of distinct representatives for VC inside IS.
// The solver uses the IS-restricted condition (IsNEExpander); the literal
// one is a test oracle. See DESIGN.md §1 for the discrepancy note.

// IsNEExpander decides the equilibrium-relevant condition for a partition
// (is, vc): every X ⊆ vc has at least |X| distinct neighbors inside is.
// On success it also returns the system of distinct representatives
// rep[v] ∈ is for every v ∈ vc, which is exactly the matching of VC into IS
// that Algorithm A of [7] threads into the edge-player support. On failure
// rep is nil and violator is a witness subset of vc. O(|vc| · m);
// allocates the membership bitmap, the rep map, and SDR scratch.
func IsNEExpander(g *graph.Graph, is, vc []int) (rep map[int]int, violator []int) {
	member := membership(g.NumVertices(), is)
	return matching.Representatives(g, vc, func(v int) bool { return member[v] })
}
