package game

import (
	"fmt"
	"math"
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

// ProbRat is Prob without the allocation: the probability of tuple t
// (zero outside the support) as a value copy, which cannot alias the
// strategy.
func (s TupleStrategy) ProbRat(t Tuple) rat.Rat {
	var p rat.Rat
	if i, ok := slices.BinarySearchFunc(s.tuples, t, compareTuple); ok {
		p.Set(&s.probs[i])
	}
	return p
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
// A run of c attackers sharing one strategy, as NewSymmetricProfile
// builds, adds c·P(v) once instead of P(v) c times.
func (gm *Game) vertexLoadsVec(mp MixedProfile) rat.Vec {
	loads := rat.NewVec(gm.g.NumVertices())
	var c, term rat.Rat
	for i := 0; i < len(mp.VP); {
		s := mp.VP[i]
		j := i + 1
		for j < len(mp.VP) && mp.VP[j].shares(s) {
			j++
		}
		c.SetInt64(int64(j - i))
		for k, v := range s.support {
			p := &s.probs[k]
			if j-i > 1 {
				// A uniform strategy repeats one probability: multiply
				// only when it changes.
				if k == 0 || s.probs[k] != s.probs[k-1] {
					term.Mul(&c, p)
				}
				p = &term
			}
			if loads[v].Sign() == 0 {
				loads[v].Set(p)
			} else {
				loads[v].Add(&loads[v], p)
			}
		}
		i = j
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
// Σ_t P(t) · m(t). A defender who plays every support tuple with one
// probability, as both structured families do, is summed as exact
// integers (uniformProfitTP); any other profile, or an overflow there,
// is summed in rat arithmetic.
func (gm *Game) ExpectedProfitTP(mp MixedProfile) *big.Rat {
	loads := gm.vertexLoadsVec(mp)
	if gain, ok := gm.uniformProfitTP(mp.TP, loads); ok {
		return gain
	}
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

// uniformProfitTP is ExpectedProfitTP for a defender who plays every
// support tuple with the same probability p. With D the lcm of the load
// denominators, Σ_t p·m(t) = p·(Σ_t Σ_{v∈V(t)} D·m(v))/D: one int64 sum
// over the tuples and one multiplication. ok is false when the tuple
// probabilities differ, a value has been promoted past int64 or is
// negative, or D, a scaled load or the sum would overflow int64.
func (gm *Game) uniformProfitTP(tp TupleStrategy, loads rat.Vec) (*big.Rat, bool) {
	if len(tp.probs) == 0 {
		return nil, false
	}
	pn, pd, ok := tp.probs[0].Frac64()
	if !ok {
		return nil, false
	}
	for i := range tp.probs {
		if n, d, ok := tp.probs[i].Frac64(); !ok || n != pn || d != pd {
			return nil, false
		}
	}
	lcm := int64(1)
	for i := range loads {
		n, d, ok := loads[i].Frac64()
		if !ok || n < 0 {
			return nil, false
		}
		if lcm%d == 0 {
			continue
		}
		if lcm, ok = mulNonNeg(lcm/gcdPos(lcm, d), d); !ok {
			return nil, false
		}
	}
	scaled := make([]int64, len(loads))
	for i := range loads {
		n, d, _ := loads[i].Frac64()
		if scaled[i], ok = mulNonNeg(n, lcm/d); !ok {
			return nil, false
		}
	}
	// seen[v] == i+1 marks v as already counted in V(tuples[i]): an
	// endpoint shared by two of a tuple's edges is loaded once.
	seen := make([]int, len(loads))
	var sum int64
	for i, t := range tp.tuples {
		for _, id := range t.ids {
			e := gm.g.EdgeByID(id)
			for _, v := range [2]int{e.U, e.V} {
				if seen[v] == i+1 {
					continue
				}
				seen[v] = i + 1
				if sum += scaled[v]; sum < 0 {
					return nil, false
				}
			}
		}
	}
	var gain, p rat.Rat
	gain.SetFrac64(sum, lcm)
	p.SetFrac64(pn, pd)
	return gain.Mul(&gain, &p).Big(), true
}

// mulNonNeg returns a·b for a, b >= 0 and whether it fits int64.
func mulNonNeg(a, b int64) (int64, bool) {
	if a != 0 && b > math.MaxInt64/a {
		return 0, false
	}
	return a * b, true
}

// gcdPos returns gcd(a, b) for a, b >= 1.
func gcdPos(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
