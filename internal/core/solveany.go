package core

import (
	"context"
	"errors"
	"math/big"

	"github.com/defender-game/defender/internal/game"
	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/matching"
	"github.com/defender-game/defender/internal/obs"
)

// SolveAny computes SOME mixed Nash equilibrium of Π_k(G) for any graph,
// trying the structural families first and falling back to the LP minimax
// equilibrium:
//
//  1. k-matching (Algorithm A_tuple) — polynomial, any instance size, on
//     graphs admitting the Cor 4.11 partition;
//  2. perfect-matching — graphs with a perfect matching, k <= n/2;
//  3. regular-graph profile at k = 1;
//  4. the exact LP minimax pair of the ν = 1 constant-sum game, lifted to
//     ν symmetric attackers.
//
// The lift in step 4 is sound because both payoffs scale linearly in the
// attacker population: with every attacker playing the minimax mixture x,
// each tuple's expected load is ν times its ν=1 load (so the defender's
// minimax σ stays a best response), and the defender's coverage is
// unchanged (so x stays a best response for each attacker). Step 4 is
// limited to enumerable tuple spaces (ErrValueTooLarge beyond).
//
// The returned family is one of "k-matching", "perfect-matching",
// "regular", "lp-minimax". Every returned profile passes the exact
// verifier (asserted by the tests).
func SolveAny(g *graph.Graph, attackers, k int) (ne TupleEquilibrium, family string, err error) {
	return SolveAnyCtx(context.Background(), g, attackers, k)
}

// SolveAnyCtx is SolveAny under ctx's trace: it computes the blossom
// maximum matching (span "matching.maximum") and runs
// SolveAnyFromMatchingCtx on it.
func SolveAnyCtx(ctx context.Context, g *graph.Graph, attackers, k int) (ne TupleEquilibrium, family string, err error) {
	return SolveAnyFromMatchingCtx(ctx, g, matching.MaximumCtx(ctx, g), attackers, k)
}

// SolveAnyFromMatchingCtx is SolveAny over an already-computed maximum
// matching mate of g, which both matching families read: the k-matching
// family decides Cor 4.11 from it (cover.FindNEPartitionFromMatching)
// and the perfect-matching family checks and uses it directly, so a
// caller that also needs ρ(G) = n − |M| matches once per solve. The
// family cascade is timed as the span "core.solve_any", and ctx is
// threaded into the structural constructions and the LP fallback so
// their spans nest beneath it in the request's waterfall.
func SolveAnyFromMatchingCtx(ctx context.Context, g *graph.Graph, mate []int, attackers, k int) (ne TupleEquilibrium, family string, err error) {
	sp, ctx := obs.Default().StartSpanCtx(ctx, "core.solve_any")
	defer func() {
		// The chosen family is the interesting dimension when reading a
		// trace: it explains why one solve took µs and the next took ms.
		sp.Annotate("family", family)
		sp.End()
	}()
	if ne, err := solveTupleModel(ctx, g, mate, attackers, k); err == nil {
		return ne, "k-matching", nil
	} else if !errors.Is(err, ErrNoMatchingNE) && !errors.Is(err, ErrKTooLarge) {
		return TupleEquilibrium{}, "", err
	}
	if ne, err := perfectMatchingNE(g, mate, attackers, k); err == nil {
		return ne, "perfect-matching", nil
	} else if !errors.Is(err, ErrNoPerfectMatching) && !errors.Is(err, ErrKTooLarge) {
		return TupleEquilibrium{}, "", err
	}
	if k == 1 {
		if regular, _ := g.IsRegular(); regular {
			edgeNE, err := RegularGraphEdgeNE(g, attackers)
			if err != nil {
				return TupleEquilibrium{}, "", err
			}
			return TupleEquilibrium{
				Game:        edgeNE.Game,
				Profile:     edgeNE.Profile,
				VPSupport:   edgeNE.VPSupport,
				EdgeSupport: edgeNE.EdgeSupport,
				Tuples:      edgeNE.Profile.TP.Support(),
			}, "regular", nil
		}
	}
	ne, err = lpMinimaxNE(ctx, g, attackers, k)
	if err != nil {
		return TupleEquilibrium{}, "", err
	}
	return ne, "lp-minimax", nil
}

// lpMinimaxNE builds the symmetric lift of the ν = 1 minimax pair and
// carries its exact value, so callers need not solve the LP again.
func lpMinimaxNE(ctx context.Context, g *graph.Graph, attackers, k int) (TupleEquilibrium, error) {
	gm, err := game.New(g, attackers, k)
	if err != nil {
		return TupleEquilibrium{}, err
	}
	tuples, gs, err := solveTupleGame(ctx, g, k)
	if err != nil {
		return TupleEquilibrium{}, err
	}
	ts, err := game.NewTupleStrategy(tuples, gs.Row)
	if err != nil {
		return TupleEquilibrium{}, err
	}
	probs := make(map[int]*big.Rat, len(gs.Col))
	for v, p := range gs.Col {
		probs[v] = p
	}
	vs := game.NewVertexStrategy(probs)
	profile := game.NewSymmetricProfile(attackers, vs, ts)
	if err := gm.Validate(profile); err != nil {
		return TupleEquilibrium{}, err
	}
	edgeIDs := profile.TP.SupportEdges()
	edges := make([]graph.Edge, len(edgeIDs))
	for i, id := range edgeIDs {
		edges[i] = g.EdgeByID(id)
	}
	return TupleEquilibrium{
		Game:        gm,
		Profile:     profile,
		VPSupport:   profile.SupportUnionVP(),
		EdgeSupport: edges,
		Tuples:      profile.TP.Support(),
		LPValue:     gs.Value,
	}, nil
}
