package core

import (
	"errors"
	"fmt"
	"math/big"

	"github.com/defender-game/defender/internal/cover"
	"github.com/defender-game/defender/internal/game"
	"github.com/defender-game/defender/internal/graph"
)

// ErrNoMatchingNE is returned when a graph admits no matching (or
// k-matching) Nash equilibrium.
var ErrNoMatchingNE = errors.New("core: graph admits no matching Nash equilibrium")

// EdgeEquilibrium is a structured mixed Nash equilibrium of the Edge model
// Π_1(G): all attackers play uniformly on a common support, the defender
// plays uniformly on a set of edges. Algorithm A produces *matching*
// equilibria of this shape (Definition 2.2 and Lemma 2.1: the support is an
// independent set IS and every defender edge touches exactly one IS
// vertex); RegularGraphEdgeNE produces the all-vertices/all-edges shape.
type EdgeEquilibrium struct {
	Game    *game.Game
	Profile game.MixedProfile
	// VPSupport is D(vp), the common attacker support (= IS for matching
	// equilibria).
	VPSupport []int
	// EdgeSupport is D(tp) in labeling order e_0, e_1, ...; Algorithm
	// A_tuple consumes this exact order in its cyclic construction.
	EdgeSupport []graph.Edge
}

// DefenderGain returns the defender's expected profit IP_tp, computed
// exactly from the profile via equation (2). For matching equilibria it
// equals ν / |IS| (equation (11) of the paper), asserted by the tests.
func (ne EdgeEquilibrium) DefenderGain() *big.Rat {
	return ne.Game.ExpectedProfitTP(ne.Profile)
}

// AlgorithmA reconstructs the matching-equilibrium algorithm of [7] that
// the paper invokes as a subroutine (step 1 of Algorithm A_tuple). Given a
// partition (IS, VC) with IS independent and G a VC-expander, it builds the
// edge-player support:
//
//   - one edge (v, rep[v]) per VC vertex v, where rep is the system of
//     distinct representatives matching VC into IS (the expander witness),
//   - plus one arbitrary incident edge for every IS vertex not used as a
//     representative (its neighbors all lie in VC because IS is
//     independent).
//
// Every support edge therefore touches exactly one IS vertex, every IS
// vertex touches exactly one support edge, and the support covers all of V:
// the conditions of Lemma 2.1. Both players use uniform distributions.
func AlgorithmA(g *graph.Graph, attackers int, p cover.Partition) (EdgeEquilibrium, error) {
	support, err := matchingSupport(g, p)
	if err != nil {
		return EdgeEquilibrium{}, err
	}
	gm, err := game.New(g, attackers, 1)
	if err != nil {
		return EdgeEquilibrium{}, err
	}
	profile, err := uniformProfile(gm, p.IS, edgesAsTuples(g, support))
	if err != nil {
		return EdgeEquilibrium{}, err
	}
	return EdgeEquilibrium{
		Game:        gm,
		Profile:     profile,
		VPSupport:   graph.NormalizeSet(p.IS),
		EdgeSupport: support,
	}, nil
}

// matchingSupport is Algorithm A's edge-player support D(tp) in labeling
// order: the edges (v, rep[v]) for VC ascending, then one edge for every
// IS vertex no representative uses. The partition is checked first
// (cover.Partition.Witness), and its representatives come from that
// check, so the SDR search runs at most once. O(n + m) when p.Rep is set.
func matchingSupport(g *graph.Graph, p cover.Partition) ([]graph.Edge, error) {
	rep, err := p.Witness(g)
	if err != nil {
		return nil, fmt.Errorf("core: algorithm A: %w", err)
	}
	// usedIS[v] = true once IS vertex v is incident to a support edge.
	// Witness guarantees every VC vertex has a distinct IS representative.
	usedIS := make([]bool, g.NumVertices())
	support := make([]graph.Edge, 0, len(p.IS))
	for _, v := range p.VC {
		r := rep[v]
		usedIS[r] = true
		support = append(support, graph.NewEdge(v, r))
	}
	for _, v := range p.IS {
		if usedIS[v] {
			continue
		}
		nbrs := g.Neighbors(v)
		if len(nbrs) == 0 {
			return nil, fmt.Errorf("core: algorithm A: %w", game.ErrIsolatedVertex)
		}
		support = append(support, graph.NewEdge(v, nbrs[0]))
		usedIS[v] = true
	}
	return support, nil
}

// SolveEdgeModel finds a matching NE of Π_1(G) end to end: it decides
// the (IS, VC) partition exactly (cover.FindNEPartition) and runs
// Algorithm A. It returns ErrNoMatchingNE when no partition exists.
func SolveEdgeModel(g *graph.Graph, attackers int) (EdgeEquilibrium, error) {
	p, err := cover.FindNEPartition(g)
	if err != nil {
		if errors.Is(err, cover.ErrNoPartition) {
			return EdgeEquilibrium{}, fmt.Errorf("%w: %v", ErrNoMatchingNE, err)
		}
		return EdgeEquilibrium{}, err
	}
	return AlgorithmA(g, attackers, p)
}

// uniformProfile builds the symmetric profile of Lemma 4.1: every attacker
// uniform on vpSupport, the defender uniform on the tuple support.
func uniformProfile(gm *game.Game, vpSupport []int, tuples []game.Tuple) (game.MixedProfile, error) {
	ts, err := game.UniformTupleStrategy(tuples)
	if err != nil {
		return game.MixedProfile{}, err
	}
	mp := game.NewSymmetricProfile(gm.Attackers(), game.UniformVertexStrategy(vpSupport), ts)
	if err := gm.Validate(mp); err != nil {
		return game.MixedProfile{}, err
	}
	return mp, nil
}

// edgesAsTuples wraps each edge as a 1-tuple (the Edge model is the Tuple
// model with k = 1).
func edgesAsTuples(g *graph.Graph, edges []graph.Edge) []game.Tuple {
	out := make([]game.Tuple, 0, len(edges))
	for _, e := range edges {
		t, err := game.NewTuple(g, []graph.Edge{e})
		if err != nil {
			// lint:invariant(nakedpanic): callers only pass edges of g, so NewTuple
			// cannot fail; a violation is a bug worth crashing on.
			panic(fmt.Sprintf("core: edge %v not in graph: %v", e, err))
		}
		out = append(out, t)
	}
	return out
}
