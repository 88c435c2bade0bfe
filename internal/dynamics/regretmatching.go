package dynamics

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/defender-game/defender/internal/game"
	"github.com/defender-game/defender/internal/graph"
)

// RegretMatching runs Hart & Mas-Colell's regret-matching dynamics on the
// Edge model Π_1(G) with one attacker: each round both players sample an
// action from probabilities proportional to positive cumulative regret
// (uniform when no regret is positive), then update regrets against the
// opponent's realized action. In zero-sum games the empirical play
// converges to the minimax value — a third learning algorithm, with
// randomized (rather than deterministic-FP or full-distribution-MW)
// updates. The seed builds a private source, so a run replays exactly.
func RegretMatching(g *graph.Graph, rounds int, seed int64) (MWResult, error) {
	if rounds <= 0 {
		return MWResult{}, fmt.Errorf("%w: %d", ErrBadRounds, rounds)
	}
	if g.NumVertices() == 0 || g.NumEdges() == 0 {
		return MWResult{}, errors.New("dynamics: graph has no edges")
	}
	if g.HasIsolatedVertex() {
		return MWResult{}, game.ErrIsolatedVertex
	}
	rng := rand.New(rand.NewSource(seed))
	n, m := g.NumVertices(), g.NumEdges()

	atkRegret := make([]float64, n) // attacker action regrets
	defRegret := make([]float64, m) // defender action regrets
	atkCounts := make([]float64, n)
	defCounts := make([]float64, m)

	sample := func(regret []float64) int {
		total := 0.0
		for _, r := range regret {
			if r > 0 {
				total += r
			}
		}
		// total sums only positive regrets, so <= 0 means no positive
		// regret exists: play uniformly.
		if total <= 0 {
			return rng.Intn(len(regret))
		}
		x := rng.Float64() * total
		for i, r := range regret {
			if r > 0 {
				x -= r
				if x <= 0 {
					return i
				}
			}
		}
		return len(regret) - 1
	}

	for t := 0; t < rounds; t++ {
		av := sample(atkRegret)
		de := sample(defRegret)
		atkCounts[av]++
		defCounts[de]++

		edge := g.EdgeByID(de)
		// Attacker utility of playing v against edge de: 1 if it escapes.
		realized := 1.0
		if edge.Has(av) {
			realized = 0.0
		}
		for v := 0; v < n; v++ {
			alt := 1.0
			if edge.Has(v) {
				alt = 0.0
			}
			atkRegret[v] += alt - realized
		}
		// Defender utility of edge e against vertex av: 1 if it catches.
		realizedD := 1.0 - realized
		for e := 0; e < m; e++ {
			alt := 0.0
			if g.EdgeByID(e).Has(av) {
				alt = 1.0
			}
			defRegret[e] += alt - realizedD
		}
	}

	atkAvg := make([]float64, n)
	for v := range atkAvg {
		atkAvg[v] = atkCounts[v] / float64(rounds)
	}
	defAvg := make([]float64, m)
	for e := range defAvg {
		defAvg[e] = defCounts[e] / float64(rounds)
	}
	// Value bounds from the empirical averages, as in MW.
	hit := make([]float64, n)
	for e := 0; e < m; e++ {
		edge := g.EdgeByID(e)
		hit[edge.U] += defAvg[e]
		hit[edge.V] += defAvg[e]
	}
	lower := hit[0]
	for _, h := range hit[1:] {
		if h < lower {
			lower = h
		}
	}
	upper := 0.0
	for e := 0; e < m; e++ {
		edge := g.EdgeByID(e)
		if load := atkAvg[edge.U] + atkAvg[edge.V]; load > upper {
			upper = load
		}
	}
	obsRMRuns.Inc()
	obsRMRounds.Observe(float64(rounds))
	obsRMGap.Observe(upper - lower)
	return MWResult{
		Rounds:      rounds,
		Value:       (lower + upper) / 2,
		LowerBound:  lower,
		UpperBound:  upper,
		AttackerAvg: atkAvg,
		DefenderAvg: defAvg,
	}, nil
}
