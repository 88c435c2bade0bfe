package core

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"strconv"

	"github.com/defender-game/defender/internal/game"
	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/lp"
	"github.com/defender-game/defender/internal/obs"
)

// For a single attacker (ν = 1) the Tuple model is a constant-sum game:
// IP_tp + IP_vp = 1 in every outcome. All Nash equilibria of a constant-sum
// game attain the same value, so the minimax value — computable by linear
// programming from the payoff matrix alone — is an *independent oracle* for
// every equilibrium construction in this package: a k-matching equilibrium
// predicts value k/|E(D(tp))|, a perfect-matching equilibrium 2k/n, a
// regular-graph equilibrium d/m, and the LP must agree exactly.

// ErrValueTooLarge is returned when the defender's pure-strategy space
// C(m, k) exceeds the enumeration budget of the LP oracle.
var ErrValueTooLarge = errors.New("core: tuple space too large for the LP value oracle")

// valueTupleLimit caps the number of tuple columns the oracle enumerates.
const valueTupleLimit = 20_000

// GameValue computes the exact minimax value of Π_k(G) with a single
// attacker: the probability that the defender catches the attacker when
// both play optimally. It enumerates all C(m, k) defender tuples as
// matrix-game rows and solves the resulting zero-sum game by exact LP —
// deliberately structure-free, so it can certify (or refute) the
// structured equilibrium constructions. Along with the value it returns
// the defender's optimal mixed strategy over tuples.
func GameValue(g *graph.Graph, k int) (*big.Rat, []game.Tuple, []*big.Rat, error) {
	return GameValueCtx(context.Background(), g, k)
}

// GameValueCtx is GameValue under ctx's trace: the oracle run is timed
// as the span "core.game_value" with the LP solve nested beneath it as
// "lp.simplex".
func GameValueCtx(ctx context.Context, g *graph.Graph, k int) (*big.Rat, []game.Tuple, []*big.Rat, error) {
	sp, ctx := obs.Default().StartSpanCtx(ctx, "core.game_value")
	sp.Annotate("k", strconv.Itoa(k))
	defer sp.End()
	if g.NumVertices() == 0 {
		return nil, nil, nil, fmt.Errorf("core: game value: empty graph")
	}
	if g.HasIsolatedVertex() {
		return nil, nil, nil, game.ErrIsolatedVertex
	}
	if k < 1 || k > g.NumEdges() {
		return nil, nil, nil, fmt.Errorf("%w: k=%d, m=%d", game.ErrBadK, k, g.NumEdges())
	}
	tuples, gs, err := solveTupleGame(ctx, g, k)
	return gs.Value, tuples, gs.Row, err
}

// solveTupleGame solves the ν = 1 game by LP over all C(m, k) tuples
// (ErrValueTooLarge past the budget): payoff 1 to the defender when the
// tuple covers the attacker's vertex. A cancelled ctx stops the LP.
func solveTupleGame(ctx context.Context, g *graph.Graph, k int) ([]game.Tuple, lp.GameSolution, error) {
	if !combinationsWithin(g.NumEdges(), k, valueTupleLimit) {
		return nil, lp.GameSolution{}, fmt.Errorf("%w: C(%d,%d)", ErrValueTooLarge, g.NumEdges(), k)
	}
	tuples := EnumerateTuples(g, k)
	n := g.NumVertices()
	zero, one := new(big.Rat), big.NewRat(1, 1)
	cells := make([]*big.Rat, len(tuples)*n)
	for i := range cells {
		cells[i] = zero
	}
	payoff := make([][]*big.Rat, len(tuples))
	for i, t := range tuples {
		payoff[i] = cells[i*n : (i+1)*n]
		for _, v := range t.Vertices(g) {
			payoff[i][v] = one
		}
	}
	gs, err := lp.SolveZeroSumCtx(ctx, payoff)
	return tuples, gs, err
}

// EnumerateTuples lists every k-subset of g's edges as a Tuple, in
// lexicographic edge-index order. The pure defender strategy space of
// Π_k(G) — exported so callers (the experiment cache, benchmarks) can
// memoize or measure the enumeration separately from the LP solve.
func EnumerateTuples(g *graph.Graph, k int) []game.Tuple {
	var out []game.Tuple
	ids := make([]int, k)
	var rec func(pos, next int)
	rec = func(pos, next int) {
		if pos == k {
			t, err := game.NewTupleFromIDs(g, ids)
			if err != nil {
				// lint:invariant(nakedpanic): ids are distinct ascending edge indices
				// by construction, so NewTupleFromIDs cannot fail.
				panic(fmt.Sprintf("core: enumerate tuples: %v", err))
			}
			out = append(out, t)
			return
		}
		for id := next; id <= g.NumEdges()-(k-pos); id++ {
			ids[pos] = id
			rec(pos+1, id+1)
		}
	}
	rec(0, 0)
	return out
}
