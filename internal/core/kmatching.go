package core

import (
	"errors"
	"fmt"
	"math/big"

	"github.com/defender-game/defender/internal/cover"
	"github.com/defender-game/defender/internal/game"
	"github.com/defender-game/defender/internal/graph"
)

// ErrNotKMatching is wrapped by all k-matching configuration violations.
var ErrNotKMatching = errors.New("core: not a k-matching configuration")

// TupleEquilibrium is a structured mixed Nash equilibrium of the Tuple
// model Π_k(G): all attackers play uniformly on a common support, the
// defender plays uniformly on a set of k-tuples. Algorithm A_tuple,
// BuildKMatchingNE and LiftToTupleModel produce *k-matching* equilibria of
// this shape (Definition 4.2); PerfectMatchingNE produces the
// all-vertices/perfect-matching shape.
type TupleEquilibrium struct {
	Game    *game.Game
	Profile game.MixedProfile
	// VPSupport is D(VP), the common attacker support (an independent set
	// for k-matching equilibria, all of V for perfect-matching ones).
	VPSupport []int
	// EdgeSupport is E(D(tp)): the distinct edges appearing in support
	// tuples, in the labeling order used by the cyclic construction.
	EdgeSupport []graph.Edge
	// Tuples is D(tp): the defender's support tuples.
	Tuples []game.Tuple
	// LPValue is the exact ν = 1 game value when the equilibrium came from
	// the LP ("lp-minimax"); nil for the structured families.
	LPValue *big.Rat
}

// DefenderGain returns the defender's expected profit IP_tp — the expected
// number of arrested attackers — computed exactly from the profile via
// equation (2). For k-matching equilibria it equals k·ν / |D(VP)|
// (equation (12) of the paper): the paper's headline result is that the
// gain grows linearly in the defender power k. The tests assert the closed
// form against this exact computation.
func (ne TupleEquilibrium) DefenderGain() *big.Rat {
	return ne.Game.ExpectedProfitTP(ne.Profile)
}

// HitProbability returns P(Hit(v)) = k / |E(D(tp))| for v in the attacker
// support (Claim 4.3) — the probability any individual attacker is caught.
// Valid for both k-matching and perfect-matching equilibria, where every
// support vertex lies on exactly one support edge.
func (ne TupleEquilibrium) HitProbability() *big.Rat {
	return big.NewRat(int64(ne.Game.K()), int64(len(ne.EdgeSupport)))
}

// CheckKMatchingConfiguration verifies Definition 4.1 against a profile:
//
//	(1) D(VP) is an independent set of G,
//	(2) each vertex of D(VP) is incident to exactly one edge of E(D(tp)),
//	(3) every edge of E(D(tp)) belongs to the same number of support tuples.
//
// A nil return means mp's supports form a k-matching configuration.
func CheckKMatchingConfiguration(gm *game.Game, mp game.MixedProfile) error {
	return checkKMatching(gm.Graph(), mp.TP.Support(), mp.SupportUnionVP(), mp.TP.SupportEdges())
}

// checkKMatching is CheckKMatchingConfiguration on a profile's support
// tuples, D(VP) and E(D(tp)), computed once by the caller.
func checkKMatching(g *graph.Graph, tuples []game.Tuple, vpSupport, edgeIDs []int) error {
	if !cover.IsIndependentSet(g, vpSupport) {
		return fmt.Errorf("%w: attacker support %v is not independent", ErrNotKMatching, vpSupport)
	}

	// incident[v] counts the support edges at v, for v in D(VP) only.
	incident := make([]int, g.NumVertices())
	for _, v := range vpSupport {
		if v < 0 || v >= len(incident) {
			return fmt.Errorf("%w: attacker support vertex %d out of range", ErrNotKMatching, v)
		}
		incident[v] = 1 // one more than the count, so 0 marks "not in D(VP)"
	}
	for _, id := range edgeIDs {
		e := g.EdgeByID(id)
		for _, v := range [2]int{e.U, e.V} {
			if incident[v] > 0 {
				incident[v]++
			}
		}
	}
	for _, v := range vpSupport {
		if incident[v] != 2 {
			return fmt.Errorf("%w: support vertex %d incident to %d support edges, want exactly 1", ErrNotKMatching, v, incident[v]-1)
		}
	}

	mult := make([]int, g.NumEdges())
	var ids []int
	for _, t := range tuples {
		ids = t.AppendIDs(ids[:0])
		for _, id := range ids {
			mult[id]++
		}
	}
	for _, id := range edgeIDs {
		if m, want := mult[id], mult[edgeIDs[0]]; m != want {
			return fmt.Errorf("%w: edge %v occurs in %d tuples, others in %d", ErrNotKMatching, g.EdgeByID(id), m, want)
		}
	}
	return nil
}

// checkCoverConditions verifies condition 1 of Theorem 3.4 on a profile's
// D(VP) and E(D(tp)): E(D(tp)) is an edge cover of G and D(VP) is a vertex
// cover of the graph it induces.
func checkCoverConditions(g *graph.Graph, vpSupport, edgeIDs []int) error {
	edges := make([]graph.Edge, len(edgeIDs))
	for i, id := range edgeIDs {
		edges[i] = g.EdgeByID(id)
	}
	if !cover.IsEdgeCover(g, edges) {
		return fmt.Errorf("%w: E(D(tp)) is not an edge cover of G", ErrNotKMatching)
	}
	if !cover.IsVertexCoverOfEdges(g.NumVertices(), edges, vpSupport) {
		return fmt.Errorf("%w: D(VP) is not a vertex cover of the graph obtained by E(D(tp))", ErrNotKMatching)
	}
	return nil
}

// BuildKMatchingNE applies Lemma 4.1: given supports that form a k-matching
// configuration additionally satisfying condition 1 of Theorem 3.4, the
// uniform distributions (equations (3) and (4)) form a mixed Nash
// equilibrium. The function validates both hypotheses and returns the
// assembled equilibrium.
func BuildKMatchingNE(g *graph.Graph, attackers, k int, vpSupport []int, tuples []game.Tuple) (TupleEquilibrium, error) {
	gm, err := game.New(g, attackers, k)
	if err != nil {
		return TupleEquilibrium{}, err
	}
	profile, err := uniformProfile(gm, vpSupport, tuples)
	if err != nil {
		return TupleEquilibrium{}, err
	}
	support, vp, edgeIDs := profile.TP.Support(), profile.SupportUnionVP(), profile.TP.SupportEdges()
	if err := checkKMatching(g, support, vp, edgeIDs); err != nil {
		return TupleEquilibrium{}, err
	}
	if err := checkCoverConditions(g, vp, edgeIDs); err != nil {
		return TupleEquilibrium{}, err
	}
	edges := make([]graph.Edge, len(edgeIDs))
	for i, id := range edgeIDs {
		edges[i] = g.EdgeByID(id)
	}
	return TupleEquilibrium{
		Game:        gm,
		Profile:     profile,
		VPSupport:   vp,
		EdgeSupport: edges,
		Tuples:      support,
	}, nil
}
