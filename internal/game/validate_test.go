package game

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"github.com/defender-game/defender/internal/graph"
)

// Differential tests for the exact strategy validation: VertexStrategy and
// TupleStrategy validate on internal/rat values, which promote to big.Rat
// when they overflow int64. The reference below sums the constructors'
// big.Rat inputs directly, so any drift between the two paths (a lost
// carry, a wrong promotion, a dropped or kept zero) shows as a disagreement.

// refVertexOK is the big.Rat reference for NewVertexStrategy followed by
// validate(n): zero entries are dropped, every other entry must be a
// positive probability on a vertex of 0..n-1, and the sum must be 1.
func refVertexOK(probs map[int]*big.Rat, n int) bool {
	sum := new(big.Rat)
	for v, p := range probs {
		if p == nil || p.Sign() == 0 {
			continue
		}
		if v < 0 || v >= n || p.Sign() < 0 {
			return false
		}
		sum.Add(sum, p)
	}
	return sum.Cmp(big.NewRat(1, 1)) == 0
}

// refTupleOK is the big.Rat reference for NewTupleStrategy followed by
// validate(g, k): zero entries are dropped, the rest must be distinct
// k-tuples of g's edge ids with positive probabilities summing to 1.
func refTupleOK(ids [][]int, probs []*big.Rat, m, k int) bool {
	sum := new(big.Rat)
	seen := make(map[string]bool)
	for i, t := range ids {
		p := probs[i]
		if p == nil || p.Sign() == 0 {
			continue
		}
		key := Tuple{ids: t}.Key()
		if seen[key] || len(t) != k || p.Sign() < 0 {
			return false
		}
		seen[key] = true
		for _, id := range t {
			if id >= m {
				return false
			}
		}
		sum.Add(sum, p)
	}
	return sum.Cmp(big.NewRat(1, 1)) == 0
}

// randBigInt returns a uniform integer in [1, 2^bits].
func randBigInt(rng *rand.Rand, bits int) *big.Int {
	limit := new(big.Int).Lsh(big.NewInt(1), uint(bits))
	x := new(big.Int).Rand(rng, limit)
	return x.Add(x, big.NewInt(1))
}

// randWeight draws a positive weight: a small fraction, a fraction near
// the int64 edge, or one whose numerator and denominator overflow int64.
func randWeight(rng *rand.Rand) *big.Rat {
	switch rng.Intn(3) {
	case 0:
		return big.NewRat(1+rng.Int63n(9), 1+rng.Int63n(12))
	case 1:
		return new(big.Rat).SetFrac(randBigInt(rng, 40), randBigInt(rng, 62))
	default:
		return new(big.Rat).SetFrac(randBigInt(rng, 60+rng.Intn(40)), randBigInt(rng, 60+rng.Intn(40)))
	}
}

// randDistribution returns d probabilities summing to exactly 1: random
// weights divided by their sum, so the denominators are as wild as the
// weights.
func randDistribution(rng *rand.Rand, d int) []*big.Rat {
	ws := make([]*big.Rat, d)
	total := new(big.Rat)
	for i := range ws {
		ws[i] = randWeight(rng)
		total.Add(total, ws[i])
	}
	for i := range ws {
		ws[i].Quo(ws[i], total)
	}
	return ws
}

// spoil breaks one entry of a distribution in one of the ways validation
// must catch, or leaves it intact, and reports which it did.
func spoil(rng *rand.Rand, ps []*big.Rat) string {
	i := rng.Intn(len(ps))
	switch rng.Intn(6) {
	case 0:
		eps := new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), uint(1+rng.Intn(120))))
		ps[i].Add(ps[i], eps)
		return "sum above 1"
	case 1:
		eps := new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), uint(1+rng.Intn(120))))
		ps[i].Sub(ps[i], eps)
		return "sum below 1"
	case 2:
		ps[i].Neg(ps[i])
		return "negative entry"
	case 3:
		ps[i].SetInt64(0)
		return "dropped entry"
	default:
		return "intact"
	}
}

func TestVertexValidateMatchesBigRatReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 12
	promoted, accepted := 0, 0
	for trial := 0; trial < 3000; trial++ {
		d := 1 + rng.Intn(n)
		ps := randDistribution(rng, d)
		how := spoil(rng, ps)
		probs := make(map[int]*big.Rat, d)
		for i, v := range rng.Perm(n)[:d] {
			probs[v] = ps[i]
		}
		if rng.Intn(8) == 0 {
			probs[n+rng.Intn(3)] = probs[rng.Intn(n)] // an out-of-range vertex
			how += ", out-of-range vertex"
		}
		s := NewVertexStrategy(probs)
		for i := range s.probs {
			if _, _, ok := s.probs[i].Frac64(); !ok {
				promoted++
			}
		}
		want := refVertexOK(probs, n)
		err := s.validate(n)
		if (err == nil) != want {
			t.Fatalf("trial %d (%s): validate = %v, reference accepts = %v", trial, how, err, want)
		}
		if err != nil && !errors.Is(err, ErrInvalidProfile) {
			t.Fatalf("trial %d: error %v does not wrap ErrInvalidProfile", trial, err)
		}
		if want {
			accepted++
		}
		// Prob reads back every input exactly, promoted or not.
		for v, p := range probs {
			if p == nil {
				continue
			}
			if got := s.Prob(v); got.Cmp(p) != 0 {
				t.Fatalf("trial %d: Prob(%d) = %v, want %v", trial, v, got, p)
			}
		}
	}
	if promoted == 0 || accepted == 0 || accepted == 3000 {
		t.Fatalf("generator premise: %d promoted probabilities, %d of 3000 accepted", promoted, accepted)
	}
}

func TestTupleValidateMatchesBigRatReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	wide := graph.Complete(8)   // tuples are drawn over its 28 edge ids
	narrow := graph.Complete(7) // validated against its 21: ids 21..27 are out of range
	const k = 2
	promoted, accepted := 0, 0
	for trial := 0; trial < 3000; trial++ {
		d := 1 + rng.Intn(10)
		ps := randDistribution(rng, d)
		how := spoil(rng, ps)
		ids := make([][]int, d)
		tuples := make([]Tuple, d)
		for i := range ids {
			size := k
			if rng.Intn(20) == 0 {
				size = k + 1
			}
			m := narrow.NumEdges()
			if rng.Intn(20) == 0 {
				m = wide.NumEdges()
			}
			ids[i] = rng.Perm(m)[:size]
			if i > 0 && rng.Intn(20) == 0 {
				ids[i] = ids[rng.Intn(i)] // a duplicate tuple
			}
			tp, err := NewTupleFromIDs(wide, ids[i])
			if err != nil {
				t.Fatal(err)
			}
			tuples[i], ids[i] = tp, tp.IDs()
		}
		want := refTupleOK(ids, ps, narrow.NumEdges(), k)
		s, err := NewTupleStrategy(tuples, ps)
		if err == nil {
			for i := range s.probs {
				if _, _, ok := s.probs[i].Frac64(); !ok {
					promoted++
				}
			}
			err = s.validate(narrow, k)
		}
		if (err == nil) != want {
			t.Fatalf("trial %d (%s): got %v, reference accepts = %v", trial, how, err, want)
		}
		if err != nil && !errors.Is(err, ErrInvalidProfile) {
			t.Fatalf("trial %d: error %v does not wrap ErrInvalidProfile", trial, err)
		}
		if want {
			accepted++
			for i, tp := range tuples {
				if got := s.Prob(tp); got.Cmp(ps[i]) != 0 {
					t.Fatalf("trial %d: Prob(%v) = %v, want %v", trial, tp, got, ps[i])
				}
			}
		}
	}
	if promoted == 0 || accepted == 0 || accepted == 3000 {
		t.Fatalf("generator premise: %d promoted probabilities, %d of 3000 accepted", promoted, accepted)
	}
}

// TestProfileValidateChecksEveryAttacker: Game.Validate skips an attacker
// whose strategy shares storage with the previous one, so a differently
// built strategy after a run of shared copies must still be checked.
func TestProfileValidateChecksEveryAttacker(t *testing.T) {
	g := graph.Cycle(4)
	gm := mustGame(t, g, 3, 1)
	ts, err := UniformTupleStrategy([]Tuple{mustTuple(t, g, g.EdgeByID(0)), mustTuple(t, g, g.EdgeByID(2))})
	if err != nil {
		t.Fatal(err)
	}
	good := UniformVertexStrategy([]int{0, 2})
	bad := NewVertexStrategy(map[int]*big.Rat{0: ratOf(1, 2), 2: ratOf(1, 3)})
	if err := gm.Validate(NewSymmetricProfile(3, good, ts)); err != nil {
		t.Fatalf("symmetric profile: %v", err)
	}
	for _, vp := range [][]VertexStrategy{
		{good, good, bad},
		{bad, bad, bad},
		{good, bad, good},
		{good, good, UniformVertexStrategy([]int{0, 5})},
	} {
		if err := gm.Validate(MixedProfile{VP: vp, TP: ts}); !errors.Is(err, ErrInvalidProfile) {
			t.Errorf("profile with an invalid attacker accepted: %v", err)
		}
	}
}

func TestTupleStrategyEdgeCases(t *testing.T) {
	g := graph.Cycle(6)
	t01 := mustTuple(t, g, g.EdgeByID(0), g.EdgeByID(1))
	t23 := mustTuple(t, g, g.EdgeByID(2), g.EdgeByID(3))
	t45 := mustTuple(t, g, g.EdgeByID(4), g.EdgeByID(5))
	t03 := mustTuple(t, g, g.EdgeByID(0), g.EdgeByID(3))

	t.Run("duplicates rejected", func(t *testing.T) {
		_, err := NewTupleStrategy([]Tuple{t45, t01, t23, t01}, []*big.Rat{ratOf(1, 4), ratOf(1, 4), ratOf(1, 4), ratOf(1, 4)})
		if !errors.Is(err, ErrInvalidProfile) {
			t.Errorf("NewTupleStrategy with a duplicate: %v", err)
		}
		if _, err := UniformTupleStrategy([]Tuple{t23, t01, t23}); !errors.Is(err, ErrInvalidProfile) {
			t.Errorf("UniformTupleStrategy with a duplicate: %v", err)
		}
	})

	t.Run("zero probabilities dropped", func(t *testing.T) {
		// The zero-probability copy of t01 is dropped before the duplicate
		// check, so it neither counts as a duplicate nor enters the support.
		s, err := NewTupleStrategy([]Tuple{t45, t01, t23, t01}, []*big.Rat{ratOf(1, 2), new(big.Rat), ratOf(1, 2), ratOf(0, 5)})
		if err != nil {
			t.Fatal(err)
		}
		if s.SupportSize() != 2 {
			t.Fatalf("support %v, want the two positive tuples", s.Support())
		}
		if got := s.Support(); compareTuple(got[0], t23) != 0 || compareTuple(got[1], t45) != 0 {
			t.Errorf("support %v, want [%v %v] in sorted order", got, t23, t45)
		}
		if p := s.Prob(t01); p.Sign() != 0 {
			t.Errorf("Prob of a dropped tuple = %v, want 0", p)
		}
		if err := s.validate(g, 2); err != nil {
			t.Errorf("validate: %v", err)
		}
	})

	t.Run("outside the support", func(t *testing.T) {
		s, err := NewTupleStrategy([]Tuple{t45, t01}, []*big.Rat{ratOf(2, 3), ratOf(1, 3)})
		if err != nil {
			t.Fatal(err)
		}
		single := mustTuple(t, g, g.EdgeByID(0))
		for _, out := range []Tuple{t03, t23, single, {}} {
			if p := s.Prob(out); p.Sign() != 0 {
				t.Errorf("Prob(%v) = %v, want 0", out, p)
			}
		}
		if p := s.Prob(t45); p.Cmp(ratOf(2, 3)) != 0 {
			t.Errorf("Prob(%v) = %v, want 2/3 (the probability travels with its tuple)", t45, p)
		}
	})

	t.Run("promoted probability copied both ways", func(t *testing.T) {
		num := new(big.Int).Lsh(big.NewInt(1), 70)
		huge := new(big.Rat).SetFrac(num.Add(num, big.NewInt(1)), new(big.Int).Lsh(big.NewInt(3), 70))
		rest := new(big.Rat).Sub(big.NewRat(1, 1), huge)
		s, err := NewTupleStrategy([]Tuple{t01, t23}, []*big.Rat{huge, rest})
		if err != nil {
			t.Fatal(err)
		}
		want := new(big.Rat).Set(huge)
		huge.SetInt64(5) // the caller reuses its rat
		if _, _, ok := s.probs[0].Frac64(); ok {
			t.Fatal("premise: the probability should not fit int64")
		}
		p := s.Prob(t01)
		if p.Cmp(want) != 0 {
			t.Fatalf("Prob = %v, want %v", p, want)
		}
		p.SetInt64(9) // and scribbles on the returned one
		if err := s.validate(g, 2); err != nil {
			t.Fatalf("strategy corrupted through aliasing: %v", err)
		}
	})
}
