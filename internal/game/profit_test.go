package game

import (
	"math/big"
	"math/rand"
	"testing"

	"github.com/defender-game/defender/internal/graph"
)

// refLoads is m(v) = Σ_i P_i(v) summed in big.Rat, one attacker at a
// time.
func refLoads(g *graph.Graph, mp MixedProfile) []*big.Rat {
	loads := make([]*big.Rat, g.NumVertices())
	for v := range loads {
		loads[v] = new(big.Rat)
		for _, s := range mp.VP {
			loads[v].Add(loads[v], s.Prob(v))
		}
	}
	return loads
}

// refProfitTP is equation (2) summed in big.Rat straight from the public
// accessors: Σ_t P(t) · Σ_{v∈V(t)} m(v).
func refProfitTP(gm *Game, mp MixedProfile) *big.Rat {
	g := gm.Graph()
	loads := refLoads(g, mp)
	sum := new(big.Rat)
	for _, t := range mp.TP.Support() {
		m := new(big.Rat)
		for _, v := range t.Vertices(g) {
			m.Add(m, loads[v])
		}
		sum.Add(sum, m.Mul(m, mp.TP.Prob(t)))
	}
	return sum
}

// uniformOver is the uniform tuple strategy on the given edge-id tuples.
func uniformOver(t *testing.T, g *graph.Graph, ids ...[]int) TupleStrategy {
	t.Helper()
	tuples := make([]Tuple, len(ids))
	for i, id := range ids {
		tp, err := NewTupleFromIDs(g, id)
		if err != nil {
			t.Fatal(err)
		}
		tuples[i] = tp
	}
	ts, err := UniformTupleStrategy(tuples)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// twoPoint is the vertex strategy playing u with probability a/b and w
// with the rest.
func twoPoint(u, w int, a, b *big.Int) VertexStrategy {
	p := new(big.Rat).SetFrac(a, b)
	return NewVertexStrategy(map[int]*big.Rat{u: p, w: new(big.Rat).Sub(big.NewRat(1, 1), p)})
}

// TestExpectedProfitTPMatchesReference: ExpectedProfitTP equals the
// big.Rat summation of equation (2) on every path it can take. A uniform
// defender on int64 loads is summed as integers; non-uniform defenders,
// promoted probabilities, and loads whose common denominator or scaled
// sum overflows int64 fall back to rat arithmetic. Each named case pins
// which path it takes.
func TestExpectedProfitTPMatchesReference(t *testing.T) {
	g := graph.Complete(6) // 15 edges; id order is Complete's insertion order
	big64 := func(x int64) *big.Int { return big.NewInt(x) }
	pow3 := new(big.Int).Exp(big64(3), big64(45), nil) // > 2^63
	p1, p2 := int64(2147483647), int64(2147483646)     // coprime; p1·p2 < 2^63

	cases := []struct {
		name    string
		vp      []VertexStrategy
		tp      TupleStrategy
		integer bool // uniformProfitTP answers
	}{
		{
			name:    "uniform defender, one uniform attacker",
			vp:      []VertexStrategy{UniformVertexStrategy([]int{0, 2, 4})},
			tp:      uniformOver(t, g, []int{0, 5}, []int{1, 9}, []int{3, 14}),
			integer: true,
		},
		{
			name: "uniform defender, loads with unequal denominators",
			vp: []VertexStrategy{
				twoPoint(0, 1, big64(1), big64(3)),
				twoPoint(1, 2, big64(2), big64(5)),
				twoPoint(3, 5, big64(4), big64(7)),
			},
			tp:      uniformOver(t, g, []int{0, 1}, []int{4, 8}, []int{2, 13}, []int{6, 11}),
			integer: true,
		},
		{
			// Three attackers share one strategy, so the loads are summed
			// as 3·P(v); a fourth plays its own.
			name: "shared attacker strategy",
			vp: append(NewSymmetricProfile(3, twoPoint(0, 4, big64(2), big64(9)), TupleStrategy{}).VP,
				UniformVertexStrategy([]int{1, 4, 5})),
			tp:      uniformOver(t, g, []int{0, 5}, []int{3, 12}),
			integer: true,
		},
		{
			name: "non-uniform defender",
			vp:   []VertexStrategy{UniformVertexStrategy([]int{0, 1, 2, 3, 4, 5})},
			tp: func() TupleStrategy {
				a, _ := NewTupleFromIDs(g, []int{0, 5})
				b, _ := NewTupleFromIDs(g, []int{2, 7})
				ts, err := NewTupleStrategy([]Tuple{a, b}, []*big.Rat{big.NewRat(1, 3), big.NewRat(2, 3)})
				if err != nil {
					t.Fatal(err)
				}
				return ts
			}(),
		},
		{
			name: "promoted attacker probability",
			vp:   []VertexStrategy{twoPoint(0, 3, big64(1), pow3)},
			tp:   uniformOver(t, g, []int{0, 5}, []int{1, 9}),
		},
		{
			name: "common denominator overflows",
			vp: []VertexStrategy{
				twoPoint(0, 1, big64(1), big64(1<<22)),
				twoPoint(2, 3, big64(1), big64(1<<22-1)),
				twoPoint(4, 5, big64(1), big64(1<<22+1)),
			},
			tp: uniformOver(t, g, []int{0, 5}, []int{1, 9}),
		},
		{
			name: "scaled sum overflows",
			vp: []VertexStrategy{
				twoPoint(0, 1, big64(1), big64(p1)),
				twoPoint(2, 3, big64(1), big64(p2)),
			},
			// Edge 6 is (1,3): each tuple covers vertices 1 and 3, whose
			// scaled loads are about 2^62 each.
			tp: uniformOver(t, g, []int{6, 0}, []int{6, 14}, []int{6, 5}),
		},
	}
	for _, tc := range cases {
		gm, err := New(g, len(tc.vp), tc.tp.Support()[0].Size())
		if err != nil {
			t.Fatal(err)
		}
		mp := MixedProfile{VP: tc.vp, TP: tc.tp}
		if err := gm.Validate(mp); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for v, want := range refLoads(g, mp) {
			if got := gm.VertexLoads(mp)[v]; got.Cmp(want) != 0 {
				t.Errorf("%s: m(%d) = %s, reference %s", tc.name, v, got.RatString(), want.RatString())
			}
		}
		_, integer := gm.uniformProfitTP(mp.TP, gm.vertexLoadsVec(mp))
		if integer != tc.integer {
			t.Errorf("%s: integer path taken = %v, want %v", tc.name, integer, tc.integer)
		}
		if got, want := gm.ExpectedProfitTP(mp), refProfitTP(gm, mp); got.Cmp(want) != 0 {
			t.Errorf("%s: ExpectedProfitTP = %s, reference %s", tc.name, got.RatString(), want.RatString())
		}
	}
}

// TestExpectedProfitTPRandomMatchesReference runs random valid profiles,
// each once with randomProfile's weighted defender and once with the
// uniform defender on the same tuples, against the big.Rat reference.
func TestExpectedProfitTPRandomMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	integer := 0
	for trial := 0; trial < 300; trial++ {
		g := graph.RandomConnected(3+rng.Intn(8), 0.4, rng.Int63())
		nu := 1 + rng.Intn(4)
		k := 1 + rng.Intn(g.NumEdges())
		gm, err := New(g, nu, k)
		if err != nil {
			t.Fatal(err)
		}
		mp, err := randomProfile(rng, g, nu, k)
		if err != nil {
			t.Fatal(err)
		}
		uniform, err := UniformTupleStrategy(mp.TP.Support())
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range []TupleStrategy{mp.TP, uniform} {
			prof := MixedProfile{VP: mp.VP, TP: tp}
			if _, ok := gm.uniformProfitTP(tp, gm.vertexLoadsVec(prof)); ok {
				integer++
			}
			if got, want := gm.ExpectedProfitTP(prof), refProfitTP(gm, prof); got.Cmp(want) != 0 {
				t.Fatalf("trial %d: ExpectedProfitTP = %s, reference %s", trial, got.RatString(), want.RatString())
			}
		}
	}
	if integer < 300 {
		t.Errorf("the integer path answered %d of 600 profiles, want at least the 300 uniform ones", integer)
	}
}
