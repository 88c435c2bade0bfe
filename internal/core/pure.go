package core

import (
	"errors"
	"fmt"
	"math/big"

	"github.com/defender-game/defender/internal/cover"
	"github.com/defender-game/defender/internal/game"
	"github.com/defender-game/defender/internal/graph"
)

// ErrNoPureNE is returned when Π_k(G) provably has no pure Nash equilibrium.
var ErrNoPureNE = errors.New("core: no pure Nash equilibrium exists")

// HasPureNE decides pure-equilibrium existence by Theorem 3.1: Π_k(G) has a
// pure NE iff G contains an edge cover of size k, i.e. iff ρ(G) <= k <= m.
// Runs in polynomial time (Corollary 3.2) via blossom matching.
func HasPureNE(g *graph.Graph, k int) (bool, error) {
	return cover.HasEdgeCoverOfSize(g, k)
}

// BuildPureNE constructs the pure equilibrium of Theorem 3.1's forward
// direction: the defender plays an edge cover of size k (so every vertex is
// scanned and every attacker is caught wherever it stands); attackers place
// themselves arbitrarily (vertex 0 here — any choice yields profit 0).
func BuildPureNE(g *graph.Graph, attackers, k int) (*game.Game, game.PureProfile, error) {
	gm, err := game.New(g, attackers, k)
	if err != nil {
		return nil, game.PureProfile{}, err
	}
	ec, err := cover.EdgeCoverOfSize(g, k)
	if err != nil {
		return nil, game.PureProfile{}, fmt.Errorf("%w: %v", ErrNoPureNE, err)
	}
	t, err := game.NewTuple(g, ec)
	if err != nil {
		return nil, game.PureProfile{}, err
	}
	p := game.PureProfile{
		VertexChoice: make([]int, attackers),
		TupleChoice:  t,
	}
	if err := gm.ValidatePure(p); err != nil {
		return nil, game.PureProfile{}, err
	}
	return gm, p, nil
}

// IsPureNE verifies a pure profile against the equilibrium definition:
// no single player can strictly improve by a unilateral deviation.
//
//   - Each attacker i improves iff it is currently caught and some vertex is
//     uncovered by the defender's tuple.
//   - The defender improves iff some other tuple catches strictly more
//     attackers; the best alternative catch count is a maximum tuple load
//     with integer loads (attacker counts per vertex), computed exactly by
//     MaxTupleLoad — which may return ErrCannotVerify on instances that are
//     simultaneously large and unstructured.
func IsPureNE(gm *game.Game, p game.PureProfile) (bool, error) {
	if err := gm.ValidatePure(p); err != nil {
		return false, err
	}
	g := gm.Graph()

	// Attacker deviations.
	coveredAll := len(p.TupleChoice.Vertices(g)) == g.NumVertices()
	if !coveredAll {
		for i := range p.VertexChoice {
			if gm.ProfitVP(p, i) == 0 {
				// Caught, and an uncovered vertex exists to flee to.
				return false, nil
			}
		}
	}

	// Defender deviation: compare against the best possible tuple.
	counts := make([]*big.Rat, g.NumVertices())
	for i := range counts {
		counts[i] = new(big.Rat) // lint:invariant(ratraw): per-vertex accumulators; each is mutated independently below
	}
	one := big.NewRat(1, 1)
	for _, v := range p.VertexChoice {
		counts[v].Add(counts[v], one)
	}
	maxLoad, _, err := MaxTupleLoad(g, gm.K(), counts)
	if err != nil {
		return false, err
	}
	current := tupleLoadOf(g, counts, p.TupleChoice)
	return current.Cmp(maxLoad) == 0, nil
}
