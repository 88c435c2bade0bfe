package sim

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"testing"

	"github.com/defender-game/defender/internal/core"
	"github.com/defender-game/defender/internal/game"
	"github.com/defender-game/defender/internal/graph"
)

func TestRunValidations(t *testing.T) {
	g := graph.Cycle(4)
	ne, err := core.SolveTupleModel(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ne.Game, ne.Profile, 0, 1); !errors.Is(err, ErrBadRounds) {
		t.Errorf("rounds=0: err = %v, want ErrBadRounds", err)
	}
	bad := ne.Profile
	bad.VP = bad.VP[:1]
	if _, err := Run(ne.Game, bad, 10, 1); !errors.Is(err, game.ErrInvalidProfile) {
		t.Errorf("invalid profile: err = %v, want ErrInvalidProfile", err)
	}
}

func TestRunConvergesToExactExpectation(t *testing.T) {
	// k-matching NE on K_{3,5}: MeanCaught must approach kν/|IS| within 4σ.
	g := graph.CompleteBipartite(3, 5)
	ne, err := core.SolveTupleModel(g, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ne.Game, ne.Profile, 40_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ne.DefenderGain().Float64()
	if math.Abs(res.ExpectedCaught-want) > 1e-12 {
		t.Errorf("ExpectedCaught = %v, want %v", res.ExpectedCaught, want)
	}
	if z := math.Abs(res.ZScore()); z > 4 {
		t.Errorf("empirical mean %.4f vs exact %.4f: |z| = %.2f > 4", res.MeanCaught, want, z)
	}
	if res.Rounds != 40_000 {
		t.Errorf("Rounds = %d", res.Rounds)
	}
}

func TestRunEscapeRatesMatchHitProbability(t *testing.T) {
	// In a k-matching NE every attacker escapes with probability
	// 1 − k/|EC| (Claim 4.3).
	g := graph.Grid(3, 4)
	ne, err := core.SolveTupleModel(g, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ne.Game, ne.Profile, 30_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	hitProb, _ := ne.HitProbability().Float64()
	wantEscape := 1 - hitProb
	for i, rate := range res.EscapeRate {
		if math.Abs(rate-wantEscape) > 0.02 {
			t.Errorf("attacker %d escape rate %.4f, want ≈ %.4f", i, rate, wantEscape)
		}
	}
}

func TestRunVertexHitFrequencies(t *testing.T) {
	// Support vertices are hit with empirical frequency ≈ k/|EC|.
	g := graph.CompleteBipartite(2, 6)
	ne, err := core.SolveTupleModel(g, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ne.Game, ne.Profile, 30_000, 11)
	if err != nil {
		t.Fatal(err)
	}
	hit := ne.Game.HitProbabilities(ne.Profile)
	for v := 0; v < g.NumVertices(); v++ {
		want, _ := hit[v].Float64()
		if math.Abs(res.VertexHitFreq[v]-want) > 0.02 {
			t.Errorf("vertex %d hit freq %.4f, want ≈ %.4f", v, res.VertexHitFreq[v], want)
		}
	}
}

func TestRunDeterministicSeeds(t *testing.T) {
	g := graph.Cycle(6)
	ne, err := core.SolveTupleModel(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(ne.Game, ne.Profile, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ne.Game, ne.Profile, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanCaught != b.MeanCaught {
		t.Error("same seed must reproduce results")
	}
	c, err := Run(ne.Game, ne.Profile, 1000, 6)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanCaught == c.MeanCaught && a.VarCaught == c.VarCaught {
		t.Log("different seeds produced identical stats (unlikely but possible)")
	}
}

func TestBestResponseGainZeroAtEquilibrium(t *testing.T) {
	g := graph.Grid(3, 3)
	ne, err := core.SolveTupleModel(g, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ne.Game.Attackers(); i++ {
		gain, err := BestResponseGain(ne.Game, ne.Profile, i)
		if err != nil {
			t.Fatal(err)
		}
		if gain.Sign() != 0 {
			t.Errorf("attacker %d has deviation gain %v at equilibrium", i, gain)
		}
	}
	if _, err := BestResponseGain(ne.Game, ne.Profile, 99); err == nil {
		t.Error("attacker index out of range must fail")
	}
}

func TestBestResponseGainPositiveOffEquilibrium(t *testing.T) {
	// Attacker mass on a covered vertex while another vertex is hit less
	// often: positive deviation gain.
	g := graph.Path(4)
	gm, err := game.New(g, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := game.NewTupleFromIDs(g, []int{0}) // covers {0,1}
	if err != nil {
		t.Fatal(err)
	}
	ts, err := game.UniformTupleStrategy([]game.Tuple{tp})
	if err != nil {
		t.Fatal(err)
	}
	mp := game.NewSymmetricProfile(1, game.UniformVertexStrategy([]int{0}), ts)
	gain, err := BestResponseGain(gm, mp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gain.Sign() <= 0 {
		t.Errorf("gain = %v, want positive", gain)
	}
}

func TestZScoreDegenerate(t *testing.T) {
	r := Result{MeanCaught: 2, ExpectedCaught: 2}
	if z := r.ZScore(); z != 0 {
		t.Errorf("z = %v, want 0", z)
	}
	r2 := Result{MeanCaught: 3, ExpectedCaught: 2}
	if z := r2.ZScore(); !math.IsInf(z, 1) {
		t.Errorf("z = %v, want +Inf", z)
	}
	r3 := Result{MeanCaught: 1, ExpectedCaught: 2}
	if z := r3.ZScore(); !math.IsInf(z, -1) {
		t.Errorf("z = %v, want -Inf", z)
	}
}

func TestSamplerDistribution(t *testing.T) {
	// Deterministic single-outcome sampler.
	g := graph.Path(2)
	ne, err := core.SolveTupleModel(g, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ne.Game, ne.Profile, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	// K2: single edge covers everything; defender always catches ν=1.
	if res.MeanCaught != 1 || res.VarCaught != 0 || res.StdErr != 0 {
		t.Errorf("K2 run: %+v", res)
	}
}

// BestResponseGain estimates, by simulation against the defender's marginal
// coverage, how much a single attacker could gain by relocating to the
// least-covered vertex instead of playing its equilibrium strategy. In an
// exact equilibrium the advantage is zero; the experiments use this as an
// empirical no-regret check.
func BestResponseGain(gm *game.Game, mp game.MixedProfile, attacker int) (*big.Rat, error) {
	if err := gm.Validate(mp); err != nil {
		return nil, err
	}
	if attacker < 0 || attacker >= gm.Attackers() {
		return nil, fmt.Errorf("sim: attacker index %d out of range", attacker)
	}
	hit := gm.HitProbabilities(mp)
	minHit := new(big.Rat).Set(hit[0])
	for _, h := range hit[1:] {
		if h.Cmp(minHit) < 0 {
			minHit.Set(h)
		}
	}
	// Equilibrium payoff of this attacker.
	current := gm.ExpectedProfitVP(mp, attacker)
	best := new(big.Rat).Sub(big.NewRat(1, 1), minHit)
	return new(big.Rat).Sub(best, current), nil
}
