package game

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/defender-game/defender/internal/graph"
)

func ratOf(a, b int64) *big.Rat { return big.NewRat(a, b) }

func TestUniformVertexStrategy(t *testing.T) {
	s := UniformVertexStrategy([]int{3, 1, 3, 5})
	if got := s.Support(); !graph.SetsEqual(got, []int{1, 3, 5}) {
		t.Errorf("Support = %v", got)
	}
	if s.Prob(1).Cmp(ratOf(1, 3)) != 0 {
		t.Errorf("Prob(1) = %v, want 1/3", s.Prob(1))
	}
	if s.Prob(2).Sign() != 0 {
		t.Errorf("Prob(2) = %v, want 0", s.Prob(2))
	}
	if err := s.validate(6); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if err := s.validate(4); err == nil {
		t.Error("vertex 5 out of range for n=4")
	}
}

func TestNewVertexStrategyDropsZeros(t *testing.T) {
	s := NewVertexStrategy(map[int]*big.Rat{
		0: ratOf(1, 2),
		1: new(big.Rat), // zero dropped
		2: ratOf(1, 2),
		3: nil, // nil dropped
	})
	if got := s.Support(); !graph.SetsEqual(got, []int{0, 2}) {
		t.Errorf("Support = %v", got)
	}
	if err := s.validate(3); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestVertexStrategyValidateSums(t *testing.T) {
	s := NewVertexStrategy(map[int]*big.Rat{0: ratOf(1, 2), 1: ratOf(1, 3)})
	if err := s.validate(2); !errors.Is(err, ErrInvalidProfile) {
		t.Errorf("5/6 total: err = %v", err)
	}
	neg := NewVertexStrategy(map[int]*big.Rat{0: ratOf(3, 2), 1: ratOf(-1, 2)})
	if err := neg.validate(2); !errors.Is(err, ErrInvalidProfile) {
		t.Errorf("negative prob: err = %v", err)
	}
}

func TestUniformTupleStrategy(t *testing.T) {
	g := graph.Cycle(4)
	t1 := mustTuple(t, g, g.EdgeByID(0), g.EdgeByID(2))
	t2 := mustTuple(t, g, g.EdgeByID(1), g.EdgeByID(3))
	ts, err := UniformTupleStrategy([]Tuple{t1, t2})
	if err != nil {
		t.Fatalf("UniformTupleStrategy: %v", err)
	}
	if ts.SupportSize() != 2 {
		t.Errorf("SupportSize = %d", ts.SupportSize())
	}
	if ts.Prob(t1).Cmp(ratOf(1, 2)) != 0 {
		t.Errorf("Prob = %v", ts.Prob(t1))
	}
	other := mustTuple(t, g, g.EdgeByID(0), g.EdgeByID(1))
	if ts.Prob(other).Sign() != 0 {
		t.Error("probability outside support must be 0")
	}
	if err := ts.validate(g, 2); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if err := ts.validate(g, 3); err == nil {
		t.Error("wrong k must fail validation")
	}
	// Duplicates rejected.
	if _, err := UniformTupleStrategy([]Tuple{t1, t1}); !errors.Is(err, ErrInvalidProfile) {
		t.Errorf("duplicate tuples: err = %v", err)
	}
	// Empty support rejected.
	if _, err := UniformTupleStrategy(nil); !errors.Is(err, ErrInvalidProfile) {
		t.Errorf("empty: err = %v", err)
	}
}

func TestTupleStrategySupportEdges(t *testing.T) {
	g := graph.Cycle(5)
	t1 := mustTuple(t, g, g.EdgeByID(0), g.EdgeByID(2))
	t2 := mustTuple(t, g, g.EdgeByID(2), g.EdgeByID(4))
	ts, err := UniformTupleStrategy([]Tuple{t1, t2})
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.SupportEdges(); !graph.SetsEqual(got, []int{0, 2, 4}) {
		t.Errorf("SupportEdges = %v", got)
	}
}

func TestNewTupleStrategyArityMismatch(t *testing.T) {
	g := graph.Cycle(4)
	t1 := mustTuple(t, g, g.EdgeByID(0))
	if _, err := NewTupleStrategy([]Tuple{t1}, nil); !errors.Is(err, ErrInvalidProfile) {
		t.Errorf("mismatch: err = %v", err)
	}
}

func TestSymmetricProfileAndValidate(t *testing.T) {
	g := graph.Cycle(4)
	gm := mustGame(t, g, 3, 2)
	vp := UniformVertexStrategy([]int{0, 2})
	ts, err := UniformTupleStrategy([]Tuple{mustTuple(t, g, g.EdgeByID(0), g.EdgeByID(2))})
	if err != nil {
		t.Fatal(err)
	}
	mp := NewSymmetricProfile(3, vp, ts)
	if len(mp.VP) != 3 {
		t.Fatalf("VP arity = %d", len(mp.VP))
	}
	if err := gm.Validate(mp); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Wrong arity.
	bad := MixedProfile{VP: mp.VP[:2], TP: mp.TP}
	if err := gm.Validate(bad); !errors.Is(err, ErrInvalidProfile) {
		t.Errorf("arity: err = %v", err)
	}
}

func TestSupportUnionVP(t *testing.T) {
	g := graph.Path(4)
	mp := MixedProfile{
		VP: []VertexStrategy{
			UniformVertexStrategy([]int{0, 2}),
			UniformVertexStrategy([]int{2, 3}),
		},
	}
	if got := mp.SupportUnionVP(); !graph.SetsEqual(got, []int{0, 2, 3}) {
		t.Errorf("SupportUnionVP = %v", got)
	}
	_ = g
}

func TestVertexLoads(t *testing.T) {
	g := graph.Path(3)
	gm := mustGame(t, g, 2, 1)
	mp := MixedProfile{
		VP: []VertexStrategy{
			UniformVertexStrategy([]int{0, 2}),
			UniformVertexStrategy([]int{0}),
		},
	}
	loads := gm.VertexLoads(mp)
	if loads[0].Cmp(ratOf(3, 2)) != 0 {
		t.Errorf("m(0) = %v, want 3/2", loads[0])
	}
	if loads[1].Sign() != 0 {
		t.Errorf("m(1) = %v, want 0", loads[1])
	}
	if loads[2].Cmp(ratOf(1, 2)) != 0 {
		t.Errorf("m(2) = %v, want 1/2", loads[2])
	}
}

func TestHitProbabilitiesAndTuplesThrough(t *testing.T) {
	g := graph.Path(4) // edges 0:(0,1) 1:(1,2) 2:(2,3)
	gm := mustGame(t, g, 1, 1)
	t0 := mustTuple(t, g, g.EdgeByID(0))
	t2 := mustTuple(t, g, g.EdgeByID(2))
	ts, err := UniformTupleStrategy([]Tuple{t0, t2})
	if err != nil {
		t.Fatal(err)
	}
	mp := NewSymmetricProfile(1, UniformVertexStrategy([]int{0}), ts)
	hit := gm.HitProbabilities(mp)
	wantHits := []*big.Rat{ratOf(1, 2), ratOf(1, 2), ratOf(1, 2), ratOf(1, 2)}
	for v, want := range wantHits {
		if hit[v].Cmp(want) != 0 {
			t.Errorf("Hit(%d) = %v, want %v", v, hit[v], want)
		}
	}
	through := mp.TuplesThrough(g, 1)
	if len(through) != 1 || !through[0].Equal(t0) {
		t.Errorf("TuplesThrough(1) = %v", through)
	}
}

func TestExpectedProfits(t *testing.T) {
	// C4, 2 attackers on {0,2} uniform, defender on {(0,1),(2,3)} uniform, k=1.
	g := graph.Cycle(4)
	gm := mustGame(t, g, 2, 1)
	ts, err := UniformTupleStrategy([]Tuple{
		mustTuple(t, g, graph.NewEdge(0, 1)),
		mustTuple(t, g, graph.NewEdge(2, 3)),
	})
	if err != nil {
		t.Fatal(err)
	}
	mp := NewSymmetricProfile(2, UniformVertexStrategy([]int{0, 2}), ts)

	// Each attacker: hit prob 1/2 on either support vertex -> profit 1/2.
	for i := 0; i < 2; i++ {
		if got := gm.ExpectedProfitVP(mp, i); got.Cmp(ratOf(1, 2)) != 0 {
			t.Errorf("IP_%d = %v, want 1/2", i, got)
		}
	}
	// Defender: each tuple covers one loaded vertex with load 1 -> IP = 1.
	if got := gm.ExpectedProfitTP(mp); got.Cmp(ratOf(1, 1)) != 0 {
		t.Errorf("IP_tp = %v, want 1", got)
	}
}

// Property: expected-profit conservation — IP_tp + Σ_i IP_i = ν for any
// valid profile (every attacker is either caught or not).
func TestPropertyProfitConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(3+rng.Intn(8), 0.4, seed)
		nu := 1 + rng.Intn(4)
		k := 1 + rng.Intn(g.NumEdges())
		gm, err := New(g, nu, k)
		if err != nil {
			return false
		}
		mp, err := randomProfile(rng, g, nu, k)
		if err != nil {
			return false
		}
		if gm.Validate(mp) != nil {
			return false
		}
		total := gm.ExpectedProfitTP(mp)
		for i := 0; i < nu; i++ {
			total.Add(total, gm.ExpectedProfitVP(mp, i))
		}
		return total.Cmp(big.NewRat(int64(nu), 1)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// randomProfile draws random supports and random rational probabilities.
func randomProfile(rng *rand.Rand, g *graph.Graph, nu, k int) (MixedProfile, error) {
	n := g.NumVertices()
	vps := make([]VertexStrategy, nu)
	for i := range vps {
		probs := make(map[int]*big.Rat)
		den := int64(0)
		weights := make(map[int]int64)
		support := 1 + rng.Intn(n)
		for j := 0; j < support; j++ {
			w := int64(1 + rng.Intn(5))
			weights[rng.Intn(n)] += w
			den += w
		}
		for v, w := range weights {
			probs[v] = big.NewRat(w, den)
		}
		vps[i] = NewVertexStrategy(probs)
	}
	// Random distinct tuples; stop early if the tuple space is too small to
	// supply the requested count (e.g. k == m has a single tuple).
	numTuples := 1 + rng.Intn(3)
	seen := make(map[string]bool)
	var tuples []Tuple
	for attempts := 0; len(tuples) < numTuples && attempts < 50; attempts++ {
		perm := rng.Perm(g.NumEdges())[:k]
		tp, err := NewTupleFromIDs(g, perm)
		if err != nil {
			return MixedProfile{}, err
		}
		if seen[tp.Key()] {
			continue
		}
		seen[tp.Key()] = true
		tuples = append(tuples, tp)
	}
	weights := make([]int64, len(tuples))
	var den int64
	for i := range weights {
		weights[i] = int64(1 + rng.Intn(5))
		den += weights[i]
	}
	probs := make([]*big.Rat, len(tuples))
	for i := range probs {
		probs[i] = big.NewRat(weights[i], den)
	}
	ts, err := NewTupleStrategy(tuples, probs)
	if err != nil {
		return MixedProfile{}, err
	}
	return MixedProfile{VP: vps, TP: ts}, nil
}

// Property: Σ_v m(v) = ν and 0 <= Hit(v) <= 1.
func TestPropertyLoadAndHitInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(3+rng.Intn(8), 0.4, seed)
		nu := 1 + rng.Intn(4)
		k := 1 + rng.Intn(g.NumEdges())
		gm, err := New(g, nu, k)
		if err != nil {
			return false
		}
		mp, err := randomProfile(rng, g, nu, k)
		if err != nil || gm.Validate(mp) != nil {
			return false
		}
		loads := gm.VertexLoads(mp)
		sum := new(big.Rat)
		for _, l := range loads {
			if l.Sign() < 0 {
				return false
			}
			sum.Add(sum, l)
		}
		if sum.Cmp(big.NewRat(int64(nu), 1)) != 0 {
			return false
		}
		one := big.NewRat(1, 1)
		for _, h := range gm.HitProbabilities(mp) {
			if h.Sign() < 0 || h.Cmp(one) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TuplesThrough returns Tuples(v): the support tuples covering vertex v.
func (mp MixedProfile) TuplesThrough(g *graph.Graph, v int) []Tuple {
	var out []Tuple
	for _, t := range mp.TP.tuples {
		if t.covers(g, v) {
			out = append(out, t)
		}
	}
	return out
}
