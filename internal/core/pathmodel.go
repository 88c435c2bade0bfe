package core

import (
	"errors"
	"fmt"

	"github.com/defender-game/defender/internal/graph"
)

// The Path model is the generalized variation studied in the companion work
// [8]: the defender cleans a simple path of the graph instead of an
// arbitrary edge set. A pure profile can be an equilibrium only when the
// defender's single path covers every vertex (otherwise caught attackers
// flee to an uncovered vertex and the defender chases, exactly as in the
// proof of Theorem 3.1). A simple path with k edges covers k+1 distinct
// vertices, so:
//
//	Π^path_k(G) has a pure NE  ⇔  k = n−1 and G has a Hamiltonian path.
//
// Hamiltonicity is NP-complete in general; we decide it exactly with the
// Held–Karp bitmask dynamic program, practical to ~24 vertices.

// ErrPathTooLarge is returned when the Hamiltonian-path decision exceeds
// the supported instance size.
var ErrPathTooLarge = errors.New("core: path model: graph too large for exact Hamiltonian-path decision")

// maxHamiltonianVertices bounds the Held–Karp bitmask DP (2^n states).
const maxHamiltonianVertices = 24

// HasPurePathNE decides pure-equilibrium existence in the Path model with
// path length k (number of edges). On success with exists == true, the
// witness is the covering path as an ordered vertex list.
func HasPurePathNE(g *graph.Graph, k int) (exists bool, path []int, err error) {
	if k != g.NumVertices()-1 {
		// A k-edge path covers k+1 < n vertices (or k > n−1 is not simple):
		// no pure NE, by the fleeing argument.
		return false, nil, nil
	}
	return hamiltonianPath(g)
}

// hamiltonianPath decides whether g has a Hamiltonian path and returns one
// if so, using the Held–Karp dynamic program over subsets: reach[mask][v]
// is true when the vertices of mask can be ordered into a simple path
// ending at v. O(2^n · n^2) time, n <= 24.
func hamiltonianPath(g *graph.Graph) (bool, []int, error) {
	n := g.NumVertices()
	if n > maxHamiltonianVertices {
		return false, nil, fmt.Errorf("%w: n=%d > %d", ErrPathTooLarge, n, maxHamiltonianVertices)
	}
	if n == 0 {
		return false, nil, nil
	}
	if n == 1 {
		return true, []int{0}, nil
	}
	size := 1 << uint(n)
	// parent[mask*n+v] = predecessor of v on a path realizing (mask, v),
	// -1 if unreachable, v itself for singleton starts.
	parent := make([]int8, size*n)
	for i := range parent {
		parent[i] = -1
	}
	for v := 0; v < n; v++ {
		parent[(1<<uint(v))*n+v] = int8(v)
	}
	for mask := 1; mask < size; mask++ {
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) == 0 || parent[mask*n+v] == -1 {
				continue
			}
			g.EachNeighbor(v, func(u int) {
				next := mask | 1<<uint(u)
				if next != mask && parent[next*n+u] == -1 {
					parent[next*n+u] = int8(v)
				}
			})
		}
	}
	full := size - 1
	for end := 0; end < n; end++ {
		if parent[full*n+end] == -1 {
			continue
		}
		// Reconstruct the path backwards.
		path := make([]int, 0, n)
		mask, v := full, end
		for {
			path = append(path, v)
			p := int(parent[mask*n+v])
			if p == v && mask == 1<<uint(v) {
				break
			}
			mask &^= 1 << uint(v)
			v = p
		}
		// Reverse into start→end order.
		for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
			path[i], path[j] = path[j], path[i]
		}
		return true, path, nil
	}
	return false, nil, nil
}
