package core

import (
	"fmt"

	"github.com/defender-game/defender/internal/game"
	"github.com/defender-game/defender/internal/graph"
)

// This file implements the two directions of Theorem 4.5: the polynomial-
// time reductions between matching equilibria of the Edge model Π_1(G) and
// k-matching equilibria of the Tuple model Π_k(G). Corollaries 4.7 and 4.10
// — IP_tp(s) = k · IP_tp(s') — are exposed through the DefenderGain methods
// of the two equilibrium types and asserted by the tests.

// LiftToTupleModel is Lemma 4.8: from a matching mixed NE s' of Π_1(G),
// construct a k-matching mixed NE s of Π_k(G) by labeling D_s'(tp)
// consecutively, forming the δ = E/gcd(E,k) cyclic k-windows as the tuple
// support, keeping D(VP) = D_s'(vp), and playing uniformly.
func LiftToTupleModel(ne EdgeEquilibrium, k int) (TupleEquilibrium, error) {
	return liftSupport(ne.Game.Graph(), ne.Game.Attackers(), k, ne.VPSupport, ne.EdgeSupport)
}

// liftSupport is LiftToTupleModel on the supports of a matching NE of
// Π_1(G): vpSupport = D(vp) and edgeSupport = D(tp) in labeling order.
func liftSupport(g *graph.Graph, attackers, k int, vpSupport []int, edgeSupport []graph.Edge) (TupleEquilibrium, error) {
	if k < 1 {
		return TupleEquilibrium{}, fmt.Errorf("core: lift: k must be positive, got %d", k)
	}
	if k > len(edgeSupport) {
		return TupleEquilibrium{}, fmt.Errorf("%w: k=%d > |E(D(tp))|=%d", ErrKTooLarge, k, len(edgeSupport))
	}
	ids := make([]int, len(edgeSupport))
	for i, e := range edgeSupport {
		id := g.EdgeID(e)
		if id < 0 {
			return TupleEquilibrium{}, fmt.Errorf("core: lift: support edge %v not in graph", e)
		}
		ids[i] = id
	}
	tuples, err := CyclicTuples(g, ids, k)
	if err != nil {
		return TupleEquilibrium{}, err
	}
	kne, err := BuildKMatchingNE(g, attackers, k, vpSupport, tuples)
	if err != nil {
		return TupleEquilibrium{}, fmt.Errorf("core: lift to Π_%d: %w", k, err)
	}
	// Preserve the labeling order of the source equilibrium so that
	// round-tripping is the identity on supports.
	kne.EdgeSupport = append([]graph.Edge(nil), edgeSupport...)
	return kne, nil
}

// ReduceToEdgeModel is Lemma 4.6: from a k-matching mixed NE s of Π_k(G),
// construct a matching mixed NE s' of Π_1(G) with D_s'(vp) := D_s(VP) and
// D_s'(tp) := E(D_s(tp)), both played uniformly.
func ReduceToEdgeModel(kne TupleEquilibrium) (EdgeEquilibrium, error) {
	g := kne.Game.Graph()
	gm, err := game.New(g, kne.Game.Attackers(), 1)
	if err != nil {
		return EdgeEquilibrium{}, err
	}
	profile, err := uniformProfile(gm, kne.VPSupport, edgesAsTuples(g, kne.EdgeSupport))
	if err != nil {
		return EdgeEquilibrium{}, err
	}
	ne := EdgeEquilibrium{
		Game:        gm,
		Profile:     profile,
		VPSupport:   append([]int(nil), kne.VPSupport...),
		EdgeSupport: append([]graph.Edge(nil), kne.EdgeSupport...),
	}
	// The construction is guaranteed by Lemma 4.6; re-check the matching
	// configuration conditions to fail loudly on malformed input.
	if err := CheckKMatchingConfiguration(gm, profile); err != nil {
		return EdgeEquilibrium{}, fmt.Errorf("core: reduce to Π_1: %w", err)
	}
	if err := checkCoverConditions(g, profile.SupportUnionVP(), profile.TP.SupportEdges()); err != nil {
		return EdgeEquilibrium{}, fmt.Errorf("core: reduce to Π_1: %w", err)
	}
	return ne, nil
}
