package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"github.com/defender-game/defender/internal/cover"
	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/matching"
	"github.com/defender-game/defender/internal/obs"
)

// ErrKTooLarge is returned when k exceeds the size of the constructed edge
// support |E(D(tp))| = |IS|: tuples of k distinct edges cannot then be drawn
// from the support, so no k-matching equilibrium with this support exists.
// (The paper assumes k <= |D_s'(tp)| implicitly: Claim 4.3 yields hit
// probability k/|E(D(tp))|, which must not exceed 1.)
var ErrKTooLarge = errors.New("core: k exceeds the matching-equilibrium edge support size")

// AlgorithmATuple is the paper's Algorithm A_tuple (Figure 1): given a
// partition of V(G) into an independent set IS and VC = V \ IS with G a
// VC-expander, it
//
//  1. runs Algorithm A on Π_1(G) to obtain a matching NE s',
//  2. labels the edges of D_s'(tp) consecutively,
//  3. forms the set T of cyclic k-windows over those edges (CyclicTuples),
//  4. takes D(VP) := IS and D(tp) := T,
//  5. assigns the uniform distributions of Lemma 4.1.
//
// The result is a k-matching mixed Nash equilibrium of Π_k(G) (Theorem
// 4.12) computed in O(k·n) time after step 1 (Theorem 4.13).
//
// Step 1 needs only the support of s', so the Π_1 profile AlgorithmA would
// build around it is never made: the Π_k profile is validated instead.
func AlgorithmATuple(g *graph.Graph, attackers, k int, p cover.Partition) (TupleEquilibrium, error) {
	support, err := matchingSupport(g, p)
	if err != nil {
		return TupleEquilibrium{}, err
	}
	return liftSupport(g, attackers, k, graph.NormalizeSet(p.IS), support)
}

// SolveTupleModel computes a k-matching NE of Π_k(G) end to end: it decides
// the Corollary 4.11 partition exactly (cover.FindNEPartition) and runs
// Algorithm A_tuple, returning ErrNoMatchingNE when no partition exists.
// The blossom maximum matching makes it O(n^3); the max{O(k·n), O(m√n)}
// pipeline of Theorem 5.1 is the sparse SolveKMatchingCSR. The blossom run
// is the span "matching.maximum", the partition plus construction the span
// "core.solve_tuple".
func SolveTupleModel(g *graph.Graph, attackers, k int) (TupleEquilibrium, error) {
	return solveTupleModel(context.Background(), g, matching.Maximum(g), attackers, k)
}

// solveTupleModel is SolveTupleModel over a maximum matching mate of g
// (cover.FindNEPartitionFromMatching), timed as the span "core.solve_tuple"
// under ctx's trace.
func solveTupleModel(ctx context.Context, g *graph.Graph, mate []int, attackers, k int) (TupleEquilibrium, error) {
	sp, _ := obs.Default().StartSpanCtx(ctx, "core.solve_tuple")
	sp.Annotate("k", strconv.Itoa(k))
	defer sp.End()
	p, err := cover.FindNEPartitionFromMatching(g, mate)
	if err != nil {
		if errors.Is(err, cover.ErrNoPartition) {
			return TupleEquilibrium{}, fmt.Errorf("%w: %v", ErrNoMatchingNE, err)
		}
		return TupleEquilibrium{}, err
	}
	return AlgorithmATuple(g, attackers, k, p)
}
