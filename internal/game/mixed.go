package game

import (
	"fmt"
	"math/big"
	"slices"
	"sort"

	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/rat"
)

// VertexStrategy is a mixed strategy of a vertex player: a probability
// distribution over vertices with finite support. Probabilities are exact
// small rationals (internal/rat, which promotes to big.Rat whenever a value
// stops fitting int64) and are treated as immutable once the strategy is
// built.
type VertexStrategy struct {
	support []int   // sorted
	probs   rat.Vec // probs[i] is the probability of support[i]
}

// NewVertexStrategy builds a strategy from explicit vertex probabilities.
// Zero-probability entries are dropped from the support.
func NewVertexStrategy(probs map[int]*big.Rat) VertexStrategy {
	s := VertexStrategy{support: make([]int, 0, len(probs))}
	for v, p := range probs {
		if p == nil || p.Sign() == 0 {
			continue
		}
		s.support = append(s.support, v)
	}
	sort.Ints(s.support)
	s.probs = rat.NewVec(len(s.support))
	for i, v := range s.support {
		s.probs[i].SetBig(probs[v]) // a copy: callers may mutate probs[v]
	}
	return s
}

// UniformVertexStrategy is the uniform distribution over support (Lemma 4.1,
// equation (4)).
func UniformVertexStrategy(support []int) VertexStrategy {
	support = graph.NormalizeSet(support)
	probs := rat.NewVec(len(support))
	for i := range probs {
		probs[i].SetFrac64(1, int64(len(support)))
	}
	return VertexStrategy{support: support, probs: probs}
}

// Support returns D(vp): the sorted vertices with positive probability.
func (s VertexStrategy) Support() []int {
	out := make([]int, len(s.support))
	copy(out, s.support)
	return out
}

// Prob returns the probability assigned to v (zero if outside the support).
// The result is freshly allocated: mutating it cannot corrupt the
// strategy, which stays immutable after construction.
func (s VertexStrategy) Prob(v int) *big.Rat {
	if i, ok := slices.BinarySearch(s.support, v); ok {
		return s.probs[i].Big()
	}
	return new(big.Rat)
}

// shares reports whether s and o hold the same storage, as the ν copies
// NewSymmetricProfile makes of one strategy do. Strategies are immutable,
// so shared storage means equal strategies.
func (s VertexStrategy) shares(o VertexStrategy) bool {
	if len(s.support) != len(o.support) || len(s.probs) != len(o.probs) {
		return false
	}
	return len(s.support) == 0 || (&s.support[0] == &o.support[0] && &s.probs[0] == &o.probs[0])
}

// validate checks s is a probability distribution over vertices 0..n-1.
// The sum is exact: rat adds in int64 and falls back to big.Rat when a
// partial sum does not fit.
func (s VertexStrategy) validate(n int) error {
	var sum rat.Rat
	for i, v := range s.support {
		if v < 0 || v >= n {
			return fmt.Errorf("%w: vertex %d out of range", ErrInvalidProfile, v)
		}
		p := &s.probs[i]
		if p.Sign() <= 0 {
			return fmt.Errorf("%w: non-positive probability %v on vertex %d", ErrInvalidProfile, p.Big(), v)
		}
		sum.Add(&sum, p)
	}
	if !isOne(&sum) {
		return fmt.Errorf("%w: vertex probabilities sum to %v, want 1", ErrInvalidProfile, sum.Big())
	}
	return nil
}

// isOne reports whether x == 1.
func isOne(x *rat.Rat) bool {
	var one rat.Rat
	return x.Cmp(one.SetInt64(1)) == 0
}

// TupleStrategy is the defender's mixed strategy: a distribution over
// tuples with finite support, held as the tuples in compareTuple order
// with their probabilities aligned beside them.
type TupleStrategy struct {
	tuples []Tuple // sorted by compareTuple, pairwise distinct
	probs  rat.Vec // probs[i] is the probability of tuples[i]
}

// NewTupleStrategy builds a strategy from tuples and matching
// probabilities. Zero-probability tuples are dropped; duplicate tuples are
// rejected.
func NewTupleStrategy(tuples []Tuple, probs []*big.Rat) (TupleStrategy, error) {
	if len(tuples) != len(probs) {
		return TupleStrategy{}, fmt.Errorf("%w: %d tuples, %d probabilities", ErrInvalidProfile, len(tuples), len(probs))
	}
	s := TupleStrategy{tuples: make([]Tuple, 0, len(tuples)), probs: rat.NewVec(len(tuples))}
	for i, t := range tuples {
		p := probs[i]
		if p == nil || p.Sign() == 0 {
			continue
		}
		s.probs[len(s.tuples)].SetBig(p) // a copy: callers may mutate p
		s.tuples = append(s.tuples, t)
	}
	s.probs = s.probs[:len(s.tuples)]
	if err := s.sortSupport(); err != nil {
		return TupleStrategy{}, err
	}
	return s, nil
}

// UniformTupleStrategy is the uniform distribution over the given tuples
// (Lemma 4.1, equation (3)). Duplicate tuples are rejected.
func UniformTupleStrategy(tuples []Tuple) (TupleStrategy, error) {
	if len(tuples) == 0 {
		return TupleStrategy{}, fmt.Errorf("%w: empty tuple support", ErrInvalidProfile)
	}
	s := TupleStrategy{tuples: slices.Clone(tuples), probs: rat.NewVec(len(tuples))}
	for i := range s.probs {
		s.probs[i].SetFrac64(1, int64(len(tuples)))
	}
	if err := s.sortSupport(); err != nil {
		return TupleStrategy{}, err
	}
	return s, nil
}

// sortSupport sorts the tuples by compareTuple, carrying each probability
// with its tuple, and rejects a tuple that occurs twice: after the sort
// its copies are adjacent.
func (s *TupleStrategy) sortSupport() error {
	sort.Sort(byTuple{s})
	for i := 1; i < len(s.tuples); i++ {
		if compareTuple(s.tuples[i-1], s.tuples[i]) == 0 {
			return fmt.Errorf("%w: duplicate tuple %v in support", ErrInvalidProfile, s.tuples[i])
		}
	}
	return nil
}

// byTuple sorts a strategy's tuples and probabilities together.
type byTuple struct{ s *TupleStrategy }

func (b byTuple) Len() int           { return len(b.s.tuples) }
func (b byTuple) Less(i, j int) bool { return compareTuple(b.s.tuples[i], b.s.tuples[j]) < 0 }
func (b byTuple) Swap(i, j int) {
	b.s.tuples[i], b.s.tuples[j] = b.s.tuples[j], b.s.tuples[i]
	b.s.probs[i], b.s.probs[j] = b.s.probs[j], b.s.probs[i]
}

// compareTuple orders tuples lexicographically by edge indices.
func compareTuple(a, b Tuple) int {
	return slices.Compare(a.ids, b.ids)
}

// Support returns D(tp): the tuples with positive probability, in
// deterministic order.
func (s TupleStrategy) Support() []Tuple {
	return slices.Clone(s.tuples)
}

// SupportSize returns |D(tp)|.
func (s TupleStrategy) SupportSize() int { return len(s.tuples) }

// Prob returns the probability of tuple t (zero outside the support).
// The result is freshly allocated: mutating it cannot corrupt the strategy.
func (s TupleStrategy) Prob(t Tuple) *big.Rat {
	if i, ok := slices.BinarySearchFunc(s.tuples, t, compareTuple); ok {
		return s.probs[i].Big()
	}
	return new(big.Rat)
}

// SupportEdges returns E(D(tp)): the sorted distinct edge indices appearing
// in some support tuple. O(total tuple size + largest index), no sort.
func (s TupleStrategy) SupportEdges() []int {
	top := -1
	for _, t := range s.tuples {
		for _, id := range t.ids {
			top = max(top, id)
		}
	}
	seen := make([]bool, top+1)
	distinct := 0
	for _, t := range s.tuples {
		for _, id := range t.ids {
			if !seen[id] {
				seen[id] = true
				distinct++
			}
		}
	}
	if distinct == 0 {
		return nil
	}
	ids := make([]int, 0, distinct)
	for id, ok := range seen {
		if ok {
			ids = append(ids, id)
		}
	}
	return ids
}

// validate checks s is a probability distribution over k-tuples of g,
// summing exactly on the rat path like VertexStrategy.validate.
func (s TupleStrategy) validate(g *graph.Graph, k int) error {
	var sum rat.Rat
	for i, t := range s.tuples {
		if t.Size() != k {
			return fmt.Errorf("%w: tuple %v has %d edges, want k=%d", ErrInvalidProfile, t, t.Size(), k)
		}
		for _, id := range t.ids {
			if id < 0 || id >= g.NumEdges() {
				return fmt.Errorf("%w: tuple %v references edge id %d out of range", ErrInvalidProfile, t, id)
			}
		}
		p := &s.probs[i]
		if p.Sign() <= 0 {
			return fmt.Errorf("%w: non-positive probability %v on tuple %v", ErrInvalidProfile, p.Big(), t)
		}
		sum.Add(&sum, p)
	}
	if !isOne(&sum) {
		return fmt.Errorf("%w: tuple probabilities sum to %v, want 1", ErrInvalidProfile, sum.Big())
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
		if i > 0 && s.shares(mp.VP[i-1]) {
			continue // attacker i-1 plays the same, already validated, strategy
		}
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
	for i, s := range mp.VP {
		if i > 0 && s.shares(mp.VP[i-1]) {
			continue
		}
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
			loads[v].Add(&loads[v], &s.probs[i])
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
	var vs []int
	for i, t := range mp.TP.tuples {
		p := &mp.TP.probs[i]
		vs = t.vertices(gm.g, vs)
		for _, v := range vs {
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
		term.Mul(&term, &s.probs[j])
		sum.Add(&sum, &term)
	}
	return sum.Big()
}

// ExpectedProfitTP evaluates equation (2): the defender's expected profit,
// Σ_t P(t) · m(t).
func (gm *Game) ExpectedProfitTP(mp MixedProfile) *big.Rat {
	loads := gm.vertexLoadsVec(mp)
	var sum, tl, contrib rat.Rat
	var vs []int
	for i, t := range mp.TP.tuples {
		tl.SetInt64(0)
		vs = t.vertices(gm.g, vs)
		for _, v := range vs {
			tl.Add(&tl, &loads[v])
		}
		contrib.Mul(&mp.TP.probs[i], &tl)
		sum.Add(&sum, &contrib)
	}
	return sum.Big()
}
