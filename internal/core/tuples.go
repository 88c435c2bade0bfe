// Package core implements the contribution of "The Power of the Defender"
// (Gelastou, Mavronicolas, Papadopoulou, Philippou, Spirakis; ICDCS 2006):
//
//   - pure Nash equilibria of the Tuple model Π_k(G) (Theorem 3.1,
//     Corollaries 3.2–3.3),
//   - the graph-theoretic characterization of mixed Nash equilibria
//     (Theorem 3.4) and an exact equilibrium verifier built on it,
//   - matching Nash equilibria of the Edge model Π_1(G) via Algorithm A of
//     [7] (Lemma 2.1, Theorem 2.2),
//   - k-matching configurations and k-matching Nash equilibria (Definition
//     4.1, Lemma 4.1), the polynomial-time reductions between matching and
//     k-matching equilibria (Theorem 4.5, Lemmas 4.6 and 4.8), and
//     Algorithm A_tuple (Theorems 4.12–4.13),
//   - structural extensions from the companion work [8]: perfect-matching
//     and regular-graph equilibria, and the Path-model pure equilibria.
//
// All probabilities and profits are exact rationals; every construction in
// this package is cross-checked by the verifier in verify.go.
package core

import (
	"fmt"

	"github.com/defender-game/defender/internal/game"
	"github.com/defender-game/defender/internal/graph"
)

// CyclicTuples implements the tuple construction of Lemma 4.8 / step 3 of
// Algorithm A_tuple: the edges (given as indices into g's edge list and
// labeled 0..E-1 in slice order) are traversed cyclically in windows of k,
// producing δ = E / gcd(E, k) tuples
//
//	t_i = ⟨ e_{(i-1)k mod E}, ..., e_{(ik-1) mod E} ⟩ ,  i = 1..δ,
//
// in which every edge appears in exactly δ·k/E = k/gcd(E,k) tuples (Claim
// 4.9). This equal multiplicity is condition (3) of a k-matching
// configuration. Requires 1 <= k <= len(edgeIDs).
func CyclicTuples(g *graph.Graph, edgeIDs []int, k int) ([]game.Tuple, error) {
	e := len(edgeIDs)
	if k < 1 || k > e {
		return nil, fmt.Errorf("core: cyclic tuples need 1 <= k <= %d edges, got k=%d", e, k)
	}
	delta := e / gcd(e, k)
	tuples := make([]game.Tuple, 0, delta)
	pos := 0
	for i := 0; i < delta; i++ {
		ids := make([]int, k)
		for j := 0; j < k; j++ {
			ids[j] = edgeIDs[pos]
			pos = (pos + 1) % e
		}
		t, err := game.NewTupleFromIDs(g, ids)
		if err != nil {
			return nil, fmt.Errorf("core: cyclic tuple %d: %w", i, err)
		}
		tuples = append(tuples, t)
	}
	return tuples, nil
}

// gcd returns the greatest common divisor of two positive integers.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// lcm returns the least common multiple of two positive integers, or an
// error if the product a/gcd(a,b)·b overflows int. The quotient check is
// sound because both factors are positive, so the only failure mode is
// magnitude overflow, never sign wrap.
func lcm(a, b int) (int, error) {
	q := a / gcd(a, b)
	l := q * b
	if l/b != q {
		return 0, fmt.Errorf("core: lcm(%d, %d) overflows int", a, b)
	}
	return l, nil
}
