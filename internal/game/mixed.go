package game

import (
	"fmt"
	"math/big"
	"sort"

	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/rat"
)

// ratOne is the constant 1 used by validation; never mutated.
var ratOne = big.NewRat(1, 1)

// VertexStrategy is a mixed strategy of a vertex player: a probability
// distribution over vertices with finite support. Probabilities are exact
// rationals and are treated as immutable once the strategy is built.
type VertexStrategy struct {
	support []int // sorted
	prob    map[int]*big.Rat
	// rprobs caches the support probabilities as small rationals, aligned
	// with support, so the load accumulators run on the internal/rat fast
	// path without touching the big.Rat map.
	rprobs rat.Vec
}

// NewVertexStrategy builds a strategy from explicit vertex probabilities.
// Zero-probability entries are dropped from the support.
func NewVertexStrategy(probs map[int]*big.Rat) VertexStrategy {
	s := VertexStrategy{prob: make(map[int]*big.Rat, len(probs))}
	for v, p := range probs {
		if p == nil || p.Sign() == 0 {
			continue
		}
		s.prob[v] = new(big.Rat).Set(p) // lint:invariant(ratraw): defensive copy retained by the strategy; callers may mutate p
		s.support = append(s.support, v)
	}
	sort.Ints(s.support)
	s.rprobs = rat.NewVec(len(s.support))
	for i, v := range s.support {
		s.rprobs[i].SetBig(s.prob[v])
	}
	return s
}

// UniformVertexStrategy is the uniform distribution over support (Lemma 4.1,
// equation (4)).
func UniformVertexStrategy(support []int) VertexStrategy {
	support = graph.NormalizeSet(support)
	p := make(map[int]*big.Rat, len(support))
	rp := rat.NewVec(len(support))
	for i, v := range support {
		p[v] = big.NewRat(1, int64(len(support))) // lint:invariant(ratraw): each probability escapes into the strategy map
		rp[i].SetFrac64(1, int64(len(support)))
	}
	return VertexStrategy{support: support, prob: p, rprobs: rp}
}

// Support returns D(vp): the sorted vertices with positive probability.
func (s VertexStrategy) Support() []int {
	out := make([]int, len(s.support))
	copy(out, s.support)
	return out
}

// Prob returns the probability assigned to v (zero if outside the support).
// The result is a defensive copy: mutating it cannot corrupt the strategy,
// which stays immutable after construction (the ratalias analyzer enforces
// the same property inside this package).
func (s VertexStrategy) Prob(v int) *big.Rat {
	if p, ok := s.prob[v]; ok {
		return new(big.Rat).Set(p)
	}
	return new(big.Rat)
}

// validate checks s is a probability distribution over vertices 0..n-1.
func (s VertexStrategy) validate(n int) error {
	sum := new(big.Rat)
	for _, v := range s.support {
		if v < 0 || v >= n {
			return fmt.Errorf("%w: vertex %d out of range", ErrInvalidProfile, v)
		}
		p := s.prob[v]
		if p.Sign() <= 0 {
			return fmt.Errorf("%w: non-positive probability %v on vertex %d", ErrInvalidProfile, p, v)
		}
		sum.Add(sum, p)
	}
	if sum.Cmp(ratOne) != 0 {
		return fmt.Errorf("%w: vertex probabilities sum to %v, want 1", ErrInvalidProfile, sum)
	}
	return nil
}

// TupleStrategy is the defender's mixed strategy: a distribution over
// tuples with finite support, indexed by canonical tuple key.
type TupleStrategy struct {
	tuples []Tuple // sorted by Key for deterministic iteration
	prob   map[string]*big.Rat
	// rprobs caches the tuple probabilities as small rationals, aligned
	// with tuples, feeding the hit-probability fast path.
	rprobs rat.Vec
}

// NewTupleStrategy builds a strategy from tuples and matching
// probabilities. Zero-probability tuples are dropped; duplicate tuples are
// rejected.
func NewTupleStrategy(tuples []Tuple, probs []*big.Rat) (TupleStrategy, error) {
	if len(tuples) != len(probs) {
		return TupleStrategy{}, fmt.Errorf("%w: %d tuples, %d probabilities", ErrInvalidProfile, len(tuples), len(probs))
	}
	s := TupleStrategy{prob: make(map[string]*big.Rat, len(tuples))}
	for i, t := range tuples {
		p := probs[i]
		if p == nil || p.Sign() == 0 {
			continue
		}
		key := t.Key()
		if _, dup := s.prob[key]; dup {
			return TupleStrategy{}, fmt.Errorf("%w: duplicate tuple %v in support", ErrInvalidProfile, t)
		}
		s.prob[key] = new(big.Rat).Set(p) // lint:invariant(ratraw): defensive copy retained by the strategy; callers may mutate p
		s.tuples = append(s.tuples, t)
	}
	sort.Slice(s.tuples, func(i, j int) bool { return lessTuple(s.tuples[i], s.tuples[j]) })
	s.rprobs = rat.NewVec(len(s.tuples))
	for i, t := range s.tuples {
		s.rprobs[i].SetBig(s.prob[t.Key()])
	}
	return s, nil
}

// UniformTupleStrategy is the uniform distribution over the given tuples
// (Lemma 4.1, equation (3)). Duplicate tuples are rejected.
func UniformTupleStrategy(tuples []Tuple) (TupleStrategy, error) {
	if len(tuples) == 0 {
		return TupleStrategy{}, fmt.Errorf("%w: empty tuple support", ErrInvalidProfile)
	}
	probs := make([]*big.Rat, len(tuples))
	for i := range probs {
		probs[i] = big.NewRat(1, int64(len(tuples))) // lint:invariant(ratraw): each probability escapes into the strategy
	}
	return NewTupleStrategy(tuples, probs)
}

// lessTuple orders tuples lexicographically by edge indices.
func lessTuple(a, b Tuple) bool {
	for i := 0; i < len(a.ids) && i < len(b.ids); i++ {
		if a.ids[i] != b.ids[i] {
			return a.ids[i] < b.ids[i]
		}
	}
	return len(a.ids) < len(b.ids)
}

// Support returns D(tp): the tuples with positive probability, in
// deterministic order.
func (s TupleStrategy) Support() []Tuple {
	out := make([]Tuple, len(s.tuples))
	copy(out, s.tuples)
	return out
}

// SupportSize returns |D(tp)|.
func (s TupleStrategy) SupportSize() int { return len(s.tuples) }

// Prob returns the probability of tuple t (zero outside the support).
// The result is a defensive copy: mutating it cannot corrupt the strategy.
func (s TupleStrategy) Prob(t Tuple) *big.Rat {
	if p, ok := s.prob[t.Key()]; ok {
		return new(big.Rat).Set(p)
	}
	return new(big.Rat)
}

// SupportEdges returns E(D(tp)): the sorted distinct edge indices appearing
// in some support tuple.
func (s TupleStrategy) SupportEdges() []int {
	var ids []int
	for _, t := range s.tuples {
		ids = append(ids, t.ids...)
	}
	return graph.NormalizeSet(ids)
}

// validate checks s is a probability distribution over k-tuples of g.
func (s TupleStrategy) validate(g *graph.Graph, k int) error {
	sum := new(big.Rat)
	for _, t := range s.tuples {
		if t.Size() != k {
			return fmt.Errorf("%w: tuple %v has %d edges, want k=%d", ErrInvalidProfile, t, t.Size(), k)
		}
		for _, id := range t.ids {
			if id < 0 || id >= g.NumEdges() {
				return fmt.Errorf("%w: tuple %v references edge id %d out of range", ErrInvalidProfile, t, id)
			}
		}
		p := s.prob[t.Key()]
		if p.Sign() <= 0 {
			return fmt.Errorf("%w: non-positive probability %v on tuple %v", ErrInvalidProfile, p, t)
		}
		sum.Add(sum, p)
	}
	if sum.Cmp(ratOne) != 0 {
		return fmt.Errorf("%w: tuple probabilities sum to %v, want 1", ErrInvalidProfile, sum)
	}
	return nil
}

// MixedProfile is a mixed configuration: one strategy per attacker plus the
// defender's tuple strategy.
type MixedProfile struct {
	VP []VertexStrategy
	TP TupleStrategy
}

// NewSymmetricProfile builds the profile in which all ν attackers play the
// same vertex strategy — the shape of every equilibrium constructed in the
// paper (all vertex players use the uniform distribution on a common
// support).
func NewSymmetricProfile(attackers int, vp VertexStrategy, tp TupleStrategy) MixedProfile {
	vps := make([]VertexStrategy, attackers)
	for i := range vps {
		vps[i] = vp
	}
	return MixedProfile{VP: vps, TP: tp}
}

// Validate checks the whole profile against the game instance.
func (gm *Game) Validate(mp MixedProfile) error {
	if len(mp.VP) != gm.attackers {
		return fmt.Errorf("%w: %d vertex strategies for ν=%d attackers", ErrInvalidProfile, len(mp.VP), gm.attackers)
	}
	for i, s := range mp.VP {
		if err := s.validate(gm.g.NumVertices()); err != nil {
			return fmt.Errorf("attacker %d: %w", i, err)
		}
	}
	if err := mp.TP.validate(gm.g, gm.k); err != nil {
		return fmt.Errorf("defender: %w", err)
	}
	return nil
}

// SupportUnionVP returns D(VP): the union of all attacker supports.
func (mp MixedProfile) SupportUnionVP() []int {
	var all []int
	for _, s := range mp.VP {
		all = append(all, s.support...)
	}
	return graph.NormalizeSet(all)
}

// VertexLoads returns m(v) for every vertex: the expected number of
// attackers choosing v (Section 2).
func (gm *Game) VertexLoads(mp MixedProfile) []*big.Rat {
	return gm.vertexLoadsVec(mp).ToBig()
}

// vertexLoadsVec accumulates the loads on the small-rational fast path:
// one vector allocation, no per-entry heap arithmetic while the values
// fit int64 (they are sums of probabilities, so they almost always do).
func (gm *Game) vertexLoadsVec(mp MixedProfile) rat.Vec {
	loads := rat.NewVec(gm.g.NumVertices())
	for _, s := range mp.VP {
		for i, v := range s.support {
			loads[v].Add(&loads[v], &s.rprobs[i])
		}
	}
	return loads
}

// HitProbabilities returns P(Hit(v)) for every vertex: the probability that
// the defender's tuple covers v.
func (gm *Game) HitProbabilities(mp MixedProfile) []*big.Rat {
	return gm.hitVec(mp).ToBig()
}

// hitVec accumulates the hit probabilities on the fast path.
func (gm *Game) hitVec(mp MixedProfile) rat.Vec {
	hit := rat.NewVec(gm.g.NumVertices())
	for i, t := range mp.TP.tuples {
		p := &mp.TP.rprobs[i]
		for _, v := range t.Vertices(gm.g) {
			hit[v].Add(&hit[v], p)
		}
	}
	return hit
}

// TupleLoad returns m(t) = Σ_{v ∈ V(t)} m(v) given precomputed loads.
func (gm *Game) TupleLoad(loads []*big.Rat, t Tuple) *big.Rat {
	var sum, term rat.Rat
	for _, v := range t.Vertices(gm.g) {
		term.SetBig(loads[v])
		sum.Add(&sum, &term)
	}
	return sum.Big()
}

// ExpectedProfitVP evaluates equation (1): the expected profit of attacker
// i, Σ_v P_i(v) · (1 − P(Hit(v))).
func (gm *Game) ExpectedProfitVP(mp MixedProfile, i int) *big.Rat {
	hit := gm.HitProbabilities(mp)
	return gm.expectedProfitVPWithHit(mp, i, hit)
}

// expectedProfitVPWithHit shares precomputed hit probabilities across
// players.
func (gm *Game) expectedProfitVPWithHit(mp MixedProfile, i int, hit []*big.Rat) *big.Rat {
	s := mp.VP[i]
	var one, sum, term, h rat.Rat
	one.SetInt64(1)
	for j, v := range s.support {
		h.SetBig(hit[v])
		term.Sub(&one, &h)
		term.Mul(&term, &s.rprobs[j])
		sum.Add(&sum, &term)
	}
	return sum.Big()
}

// ExpectedProfitTP evaluates equation (2): the defender's expected profit,
// Σ_t P(t) · m(t).
func (gm *Game) ExpectedProfitTP(mp MixedProfile) *big.Rat {
	loads := gm.vertexLoadsVec(mp)
	var sum, tl, contrib rat.Rat
	for i, t := range mp.TP.tuples {
		tl.SetInt64(0)
		for _, v := range t.Vertices(gm.g) {
			tl.Add(&tl, &loads[v])
		}
		contrib.Mul(&mp.TP.rprobs[i], &tl)
		sum.Add(&sum, &contrib)
	}
	return sum.Big()
}
