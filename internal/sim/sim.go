// Package sim provides a Monte-Carlo playout engine for the Tuple model:
// it samples pure outcomes from a mixed configuration round after round and
// accumulates empirical statistics. The experiments use it to validate the
// exact expected profits (equations (1) and (2) of the paper) — e.g. the
// defender's empirical catch count converging on k·ν/|IS| in a k-matching
// equilibrium — and to demonstrate deviation incentives for out-of-
// equilibrium profiles.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"

	"github.com/defender-game/defender/internal/game"
)

// ErrBadRounds rejects non-positive round counts.
var ErrBadRounds = errors.New("sim: rounds must be positive")

// Result holds the empirical statistics of a simulation run.
type Result struct {
	// Rounds is the number of independent rounds played.
	Rounds int
	// MeanCaught is the empirical mean of the defender's profit (number of
	// attackers caught per round).
	MeanCaught float64
	// VarCaught is the unbiased sample variance of the per-round catch.
	VarCaught float64
	// StdErr is the standard error of MeanCaught.
	StdErr float64
	// EscapeRate[i] is the fraction of rounds attacker i escaped.
	EscapeRate []float64
	// VertexHitFreq[v] is the fraction of rounds in which the defender's
	// sampled tuple covered vertex v.
	VertexHitFreq []float64
	// ExpectedCaught is the exact expectation IP_tp from the profile, for
	// convenience in reports.
	ExpectedCaught float64
}

// meanAgreeTol bounds when the empirical mean is considered to coincide
// with the exact expectation in ZScore's degenerate zero-StdErr branch.
// Empirical means are integer multiples of 1/rounds, so a genuine
// disagreement is many orders of magnitude larger than this.
const meanAgreeTol = 1e-12

// ZScore returns (MeanCaught − ExpectedCaught) / StdErr, the standardized
// deviation of the empirical mean from the exact expectation. Values within
// ±3 are expected for a correct sampler. Returns 0 when StdErr is 0 and the
// means agree (within meanAgreeTol), +Inf/-Inf otherwise.
func (r Result) ZScore() float64 {
	diff := r.MeanCaught - r.ExpectedCaught
	if r.StdErr <= 0 { // the standard error is non-negative by construction
		if math.Abs(diff) <= meanAgreeTol {
			return 0
		}
		return math.Inf(int(math.Copysign(1, diff)))
	}
	return diff / r.StdErr
}

// sampler draws indices from a fixed discrete distribution via inverse CDF.
type sampler struct {
	cum []float64
}

// newSampler converts exact rational probabilities to a float cumulative.
func newSampler(probs []*big.Rat) sampler {
	cum := make([]float64, len(probs))
	total := 0.0
	for i, p := range probs {
		f, _ := p.Float64()
		total += f
		cum[i] = total
	}
	// Guard the tail against float rounding.
	if len(cum) > 0 {
		cum[len(cum)-1] = 1.0
	}
	return sampler{cum: cum}
}

// draw returns an index distributed according to the sampler.
func (s sampler) draw(rng *rand.Rand) int {
	x := rng.Float64()
	lo, hi := 0, len(s.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Run plays the mixed configuration for the given number of rounds with a
// deterministic seed and returns the empirical statistics.
func Run(gm *game.Game, mp game.MixedProfile, rounds int, seed int64) (Result, error) {
	if rounds <= 0 {
		return Result{}, fmt.Errorf("%w: %d", ErrBadRounds, rounds)
	}
	if err := gm.Validate(mp); err != nil {
		return Result{}, err
	}
	g := gm.Graph()
	rng := rand.New(rand.NewSource(seed))

	// Precompute attacker samplers.
	nu := gm.Attackers()
	vpSupports := make([][]int, nu)
	vpSamplers := make([]sampler, nu)
	for i, s := range mp.VP {
		support := s.Support()
		probs := make([]*big.Rat, len(support))
		for j, v := range support {
			probs[j] = s.Prob(v)
		}
		vpSupports[i] = support
		vpSamplers[i] = newSampler(probs)
	}

	// Precompute defender sampler and per-tuple coverage bitmaps.
	tuples := mp.TP.Support()
	tpProbs := make([]*big.Rat, len(tuples))
	coverage := make([][]bool, len(tuples))
	for j, t := range tuples {
		tpProbs[j] = mp.TP.Prob(t)
		cov := make([]bool, g.NumVertices())
		for _, v := range t.Vertices(g) {
			cov[v] = true
		}
		coverage[j] = cov
	}
	tpSampler := newSampler(tpProbs)

	var (
		sumCaught   float64
		sumCaughtSq float64
		escapes     = make([]int, nu)
		hits        = make([]int, g.NumVertices())
	)
	for round := 0; round < rounds; round++ {
		cov := coverage[tpSampler.draw(rng)]
		for v, c := range cov {
			if c {
				hits[v]++
			}
		}
		caught := 0
		for i := 0; i < nu; i++ {
			v := vpSupports[i][vpSamplers[i].draw(rng)]
			if cov[v] {
				caught++
			} else {
				escapes[i]++
			}
		}
		sumCaught += float64(caught)
		sumCaughtSq += float64(caught) * float64(caught)
	}

	mean := sumCaught / float64(rounds)
	variance := 0.0
	if rounds > 1 {
		variance = (sumCaughtSq - sumCaught*mean) / float64(rounds-1)
		if variance < 0 {
			variance = 0 // float cancellation guard
		}
	}
	escapeRate := make([]float64, nu)
	for i, e := range escapes {
		escapeRate[i] = float64(e) / float64(rounds)
	}
	hitFreq := make([]float64, g.NumVertices())
	for v, h := range hits {
		hitFreq[v] = float64(h) / float64(rounds)
	}
	expected, _ := gm.ExpectedProfitTP(mp).Float64()
	return Result{
		Rounds:         rounds,
		MeanCaught:     mean,
		VarCaught:      variance,
		StdErr:         math.Sqrt(variance / float64(rounds)),
		EscapeRate:     escapeRate,
		VertexHitFreq:  hitFreq,
		ExpectedCaught: expected,
	}, nil
}
