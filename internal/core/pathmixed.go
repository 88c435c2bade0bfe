package core

import (
	"errors"
	"fmt"
	"math/big"

	"github.com/defender-game/defender/internal/game"
	"github.com/defender-game/defender/internal/graph"
)

// Mixed equilibria of the Path model (the [8] variation where the defender
// cleans a simple path of k edges). The defender's strategy space is the
// set of k-edge simple paths — a strict subset of the k-tuples — so the
// Tuple-model verifier does not apply directly: the defender's deviations
// range over paths only. This file provides a path-restricted verifier and
// the rotation construction on cycles, where the arc structure makes the
// equilibrium explicit:
//
//   - defender: uniform over the n rotations of a k-edge arc,
//   - attackers: uniform over all n vertices,
//   - every vertex hit with probability (k+1)/n; every arc loaded (k+1)ν/n.
//
// Comparative corollary (asserted in the tests): contiguity costs the
// defender — the Path-model gain (k+1)ν/n is strictly below the Tuple-model
// perfect-matching gain 2kν/n for every k ≥ 2, and equal at k = 1.

// ErrTooManyPaths is returned when path enumeration exceeds its cap.
var ErrTooManyPaths = errors.New("core: too many simple paths to enumerate")

// enumerateKEdgePaths lists every simple path with exactly k edges as a
// vertex sequence (deduplicated up to reversal), stopping with
// ErrTooManyPaths beyond cap paths (pass 0 for the default of 100000).
func enumerateKEdgePaths(g *graph.Graph, k, cap int) ([][]int, error) {
	if cap <= 0 {
		cap = 100_000
	}
	if k < 1 {
		return nil, fmt.Errorf("core: enumerate paths: k must be positive, got %d", k)
	}
	var out [][]int
	inPath := make([]bool, g.NumVertices())
	path := make([]int, 0, k+1)

	var dfs func(v int) error
	dfs = func(v int) error {
		path = append(path, v)
		inPath[v] = true
		defer func() {
			path = path[:len(path)-1]
			inPath[v] = false
		}()
		if len(path) == k+1 {
			// Dedupe by orientation: keep start < end (ties impossible on
			// simple paths with k >= 1).
			if path[0] < path[len(path)-1] {
				out = append(out, append([]int(nil), path...))
				if len(out) > cap {
					return fmt.Errorf("%w: more than %d", ErrTooManyPaths, cap)
				}
			}
			return nil
		}
		for _, u := range g.Neighbors(v) {
			if inPath[u] {
				continue
			}
			if err := dfs(u); err != nil {
				return err
			}
		}
		return nil
	}
	for v := 0; v < g.NumVertices(); v++ {
		if err := dfs(v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// pathAsTuple converts a vertex sequence into the tuple of its edges.
func pathAsTuple(g *graph.Graph, path []int) (game.Tuple, error) {
	if len(path) < 2 {
		return game.Tuple{}, fmt.Errorf("core: path %v too short", path)
	}
	edges := make([]graph.Edge, 0, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		if !g.HasEdge(path[i], path[i+1]) {
			return game.Tuple{}, fmt.Errorf("core: (%d,%d) is not an edge", path[i], path[i+1])
		}
		edges = append(edges, graph.NewEdge(path[i], path[i+1]))
	}
	return game.NewTuple(g, edges)
}

// VerifyPathNE checks that mp is a mixed Nash equilibrium of the PATH
// model: attackers must sit on minimum-hit vertices (as in the Tuple
// model), and every defender support tuple must be a k-edge simple path
// attaining the maximum load over ALL k-edge simple paths (enumerated
// exhaustively; ErrTooManyPaths on huge instances).
func VerifyPathNE(gm *game.Game, mp game.MixedProfile) error {
	if err := gm.Validate(mp); err != nil {
		return err
	}
	g := gm.Graph()

	hit := gm.HitProbabilities(mp)
	minHit := new(big.Rat).Set(hit[0])
	for _, h := range hit[1:] {
		if h.Cmp(minHit) < 0 {
			minHit.Set(h)
		}
	}
	for i, s := range mp.VP {
		for _, v := range s.Support() {
			if hit[v].Cmp(minHit) != 0 {
				return fmt.Errorf("%w: attacker %d on vertex %d: hit %v > min %v",
					ErrNotEquilibrium, i, v, hit[v], minHit)
			}
		}
	}

	paths, err := enumerateKEdgePaths(g, gm.K(), 0)
	if err != nil {
		return err
	}
	loads := gm.VertexLoads(mp)
	maxLoad := new(big.Rat)
	pathKeys := make(map[string]bool, len(paths))
	for _, p := range paths {
		t, err := pathAsTuple(g, p)
		if err != nil {
			return err
		}
		pathKeys[t.Key()] = true
		if l := gm.TupleLoad(loads, t); l.Cmp(maxLoad) > 0 {
			maxLoad.Set(l)
		}
	}
	for _, t := range mp.TP.Support() {
		if !pathKeys[t.Key()] {
			return fmt.Errorf("%w: support tuple %v is not a simple path", ErrNotEquilibrium, t)
		}
		if l := gm.TupleLoad(loads, t); l.Cmp(maxLoad) != 0 {
			return fmt.Errorf("%w: support path %v load %v < max %v", ErrNotEquilibrium, t, l, maxLoad)
		}
	}
	return nil
}

// CyclePathNE constructs the rotation equilibrium of the Path model on the
// cycle C_n: the defender cleans a uniformly random k-edge arc, attackers
// play uniformly on all vertices. Requires the graph to be exactly a cycle
// and 1 <= k <= n−2 (a longer "path" would close the cycle).
func CyclePathNE(g *graph.Graph, attackers, k int) (TupleEquilibrium, error) {
	if regular, d := g.IsRegular(); !regular || d != 2 || !g.IsConnected() || g.NumVertices() < 3 {
		return TupleEquilibrium{}, errors.New("core: cycle path NE requires a connected cycle")
	}
	n := g.NumVertices()
	if k < 1 || k > n-2 {
		return TupleEquilibrium{}, fmt.Errorf("%w: k=%d on C%d", ErrKTooLarge, k, n)
	}
	gm, err := game.New(g, attackers, k)
	if err != nil {
		return TupleEquilibrium{}, err
	}
	// Walk the cycle once to get a rotation order of vertices.
	order := make([]int, 0, n)
	prev, cur := -1, 0
	for len(order) < n {
		order = append(order, cur)
		nbrs := g.Neighbors(cur)
		next := nbrs[0]
		if next == prev {
			next = nbrs[1]
		}
		prev, cur = cur, next
	}
	tuples := make([]game.Tuple, 0, n)
	for s := 0; s < n; s++ {
		path := make([]int, k+1)
		for j := 0; j <= k; j++ {
			path[j] = order[(s+j)%n]
		}
		t, err := pathAsTuple(g, path)
		if err != nil {
			return TupleEquilibrium{}, err
		}
		tuples = append(tuples, t)
	}
	allV := make([]int, n)
	for v := range allV {
		allV[v] = v
	}
	profile, err := uniformProfile(gm, allV, tuples)
	if err != nil {
		return TupleEquilibrium{}, err
	}
	return TupleEquilibrium{
		Game:        gm,
		Profile:     profile,
		VPSupport:   allV,
		EdgeSupport: g.Edges(),
		Tuples:      tuples,
	}, nil
}
