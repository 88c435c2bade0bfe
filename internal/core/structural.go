package core

import (
	"errors"
	"fmt"

	"github.com/defender-game/defender/internal/game"
	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/matching"
)

// Structural equilibria beyond k-matching, following the companion work [8]
// (Mavronicolas et al., "A graph-theoretic network security game"), lifted
// to the Tuple model where the lift is sound. Unlike k-matching equilibria,
// the attacker support here is all of V — these equilibria exist on graphs
// (e.g. graphs with perfect matchings, regular graphs) that need not admit
// an independent-set/expander partition.

// ErrNoPerfectMatching is returned when the graph has no perfect matching.
var ErrNoPerfectMatching = errors.New("core: graph has no perfect matching")

// ErrNotRegular is returned when a regular-graph construction is applied to
// an irregular graph.
var ErrNotRegular = errors.New("core: graph is not regular")

// PerfectMatchingNE constructs a mixed NE of Π_k(G) for any graph with a
// perfect matching M and any k <= |M| = n/2:
//
//   - every attacker plays uniformly on V (load ν/n everywhere),
//   - the defender plays uniformly on the cyclic k-windows over M.
//
// Every vertex is hit with probability k/|M| (each vertex lies on exactly
// one matching edge and each edge is in equally many windows), so attackers
// are indifferent everywhere. Every support tuple consists of k pairwise
// disjoint edges and therefore covers 2k vertices — the maximum any tuple
// can cover — so all support tuples attain the maximum load 2kν/n.
//
// The defender gain 2kν/n is again linear in k, and for fixed k it exceeds
// the k-matching gain kν/|IS| exactly when |IS| > n/2.
func PerfectMatchingNE(g *graph.Graph, attackers, k int) (TupleEquilibrium, error) {
	return perfectMatchingNE(g, matching.Maximum(g), attackers, k)
}

// perfectMatchingNE is PerfectMatchingNE over a maximum matching mate of
// g: g has a perfect matching iff mate is one.
func perfectMatchingNE(g *graph.Graph, mate []int, attackers, k int) (TupleEquilibrium, error) {
	pm := matching.Edges(mate)
	if 2*len(pm) != g.NumVertices() {
		return TupleEquilibrium{}, fmt.Errorf("%w: maximum matching has %d edges for %d vertices",
			ErrNoPerfectMatching, len(pm), g.NumVertices())
	}
	if k < 1 || k > len(pm) {
		return TupleEquilibrium{}, fmt.Errorf("%w: k=%d, |M|=%d", ErrKTooLarge, k, len(pm))
	}
	gm, err := game.New(g, attackers, k)
	if err != nil {
		return TupleEquilibrium{}, err
	}
	ids := make([]int, len(pm))
	for i, e := range pm {
		ids[i] = g.EdgeID(e)
	}
	tuples, err := CyclicTuples(g, ids, k)
	if err != nil {
		return TupleEquilibrium{}, err
	}
	allV := make([]int, g.NumVertices())
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
		EdgeSupport: pm,
		Tuples:      tuples,
	}, nil
}

// RegularGraphEdgeNE constructs the Edge-model (k = 1) mixed NE on a
// d-regular graph: attackers uniform on V, defender uniform on all edges.
// Every vertex is hit with probability d/m (equal by regularity) and every
// edge carries load 2ν/n (equal and maximal since loads are uniform), so
// both sides are indifferent.
//
// The naive cyclic lift of this profile to Π_k is NOT an equilibrium in
// general: a window containing two adjacent edges covers fewer than 2k
// vertices and falls short of the maximum load. The tests demonstrate this
// failure mode; use PerfectMatchingNE for tuple-model defense on regular
// graphs with perfect matchings.
func RegularGraphEdgeNE(g *graph.Graph, attackers int) (EdgeEquilibrium, error) {
	regular, _ := g.IsRegular()
	if !regular {
		return EdgeEquilibrium{}, ErrNotRegular
	}
	gm, err := game.New(g, attackers, 1)
	if err != nil {
		return EdgeEquilibrium{}, err
	}
	allV := make([]int, g.NumVertices())
	for v := range allV {
		allV[v] = v
	}
	profile, err := uniformProfile(gm, allV, edgesAsTuples(g, g.Edges()))
	if err != nil {
		return EdgeEquilibrium{}, err
	}
	return EdgeEquilibrium{
		Game:        gm,
		Profile:     profile,
		VPSupport:   allV,
		EdgeSupport: g.Edges(),
	}, nil
}
