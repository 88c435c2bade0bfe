package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/defender-game/defender/internal/game"
	"github.com/defender-game/defender/internal/graph"
)

func TestHasPureNEKnownFrontier(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		k    int
		want bool
	}{
		{"K2 k=1", graph.Path(2), 1, true},
		{"path4 k=1", graph.Path(4), 1, false},
		{"path4 k=2", graph.Path(4), 2, true},
		{"path4 k=3", graph.Path(4), 3, true},
		{"C6 k=2", graph.Cycle(6), 2, false},
		{"C6 k=3", graph.Cycle(6), 3, true},
		{"C5 k=3", graph.Cycle(5), 3, true},
		{"star6 k=4", graph.Star(6), 4, false},
		{"star6 k=5", graph.Star(6), 5, true},
		{"K4 k=2", graph.Complete(4), 2, true},
		{"K4 k=1", graph.Complete(4), 1, false},
		{"petersen k=5", graph.Petersen(), 5, true},
		{"petersen k=4", graph.Petersen(), 4, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := HasPureNE(tt.g, tt.k)
			if err != nil {
				t.Fatalf("HasPureNE: %v", err)
			}
			if got != tt.want {
				t.Errorf("HasPureNE = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestNoPureNEByCorollary33(t *testing.T) {
	if !NoPureNEByCorollary33(graph.Cycle(5), 2) { // 5 >= 5
		t.Error("C5, k=2: corollary applies")
	}
	if NoPureNEByCorollary33(graph.Cycle(5), 3) { // 5 < 7
		t.Error("C5, k=3: corollary silent")
	}
}

// Property: Corollary 3.3 is consistent with Theorem 3.1 — whenever
// n >= 2k+1, HasPureNE must be false.
func TestPropertyCorollary33ImpliesNonExistence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(3+rng.Intn(12), 0.3, seed)
		k := 1 + rng.Intn(g.NumEdges())
		if !NoPureNEByCorollary33(g, k) {
			return true // corollary silent, nothing to check
		}
		has, err := HasPureNE(g, k)
		return err == nil && !has
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestBuildPureNE(t *testing.T) {
	g := graph.Cycle(6)
	gm, p, err := BuildPureNE(g, 3, 3)
	if err != nil {
		t.Fatalf("BuildPureNE: %v", err)
	}
	// Defender catches everyone.
	if got := gm.ProfitTP(p); got != 3 {
		t.Errorf("IP_tp = %d, want ν=3", got)
	}
	for i := 0; i < 3; i++ {
		if gm.ProfitVP(p, i) != 0 {
			t.Errorf("attacker %d should be caught", i)
		}
	}
	ok, err := IsPureNE(gm, p)
	if err != nil {
		t.Fatalf("IsPureNE: %v", err)
	}
	if !ok {
		t.Error("constructed profile must be a pure NE")
	}
	// Below the frontier the construction fails.
	if _, _, err := BuildPureNE(g, 3, 2); err == nil {
		t.Error("k below rho must fail")
	}
}

func TestIsPureNENegative(t *testing.T) {
	g := graph.Path(4) // rho = 2
	gm, err := game.New(g, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Attacker on covered vertex, uncovered vertices exist -> deviation.
	tp, err := game.NewTupleFromIDs(g, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	caught := game.PureProfile{VertexChoice: []int{0}, TupleChoice: tp}
	ok, err := IsPureNE(gm, caught)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("caught attacker with an escape is not an equilibrium")
	}
	// Attacker escapes but defender could move onto it.
	free := game.PureProfile{VertexChoice: []int{3}, TupleChoice: tp}
	ok, err = IsPureNE(gm, free)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("defender has a profitable deviation")
	}
}

// bruteForcePureNEExists enumerates every pure configuration (n^ν vertex
// placements × C(m,k) tuples) and tests the equilibrium condition by
// exhaustive unilateral deviations — the oracle for Theorem 3.1.
func bruteForcePureNEExists(t *testing.T, g *graph.Graph, nu, k int) bool {
	t.Helper()
	gm, err := game.New(g, nu, k)
	if err != nil {
		t.Fatalf("game.New: %v", err)
	}
	tuples := allTuples(t, g, k)
	placements := allPlacements(g.NumVertices(), nu)

	for _, tp := range tuples {
		for _, vc := range placements {
			p := game.PureProfile{VertexChoice: vc, TupleChoice: tp}
			if bruteForceIsPureNE(gm, p, tuples) {
				return true
			}
		}
	}
	return false
}

func bruteForceIsPureNE(gm *game.Game, p game.PureProfile, tuples []game.Tuple) bool {
	// Attacker deviations.
	for i := range p.VertexChoice {
		base := gm.ProfitVP(p, i)
		orig := p.VertexChoice[i]
		for v := 0; v < gm.Graph().NumVertices(); v++ {
			p.VertexChoice[i] = v
			if gm.ProfitVP(p, i) > base {
				p.VertexChoice[i] = orig
				return false
			}
		}
		p.VertexChoice[i] = orig
	}
	// Defender deviations.
	base := gm.ProfitTP(p)
	orig := p.TupleChoice
	for _, tp := range tuples {
		p.TupleChoice = tp
		if gm.ProfitTP(p) > base {
			p.TupleChoice = orig
			return false
		}
	}
	p.TupleChoice = orig
	return true
}

func allTuples(t *testing.T, g *graph.Graph, k int) []game.Tuple {
	t.Helper()
	var out []game.Tuple
	ids := make([]int, k)
	var rec func(pos, next int)
	rec = func(pos, next int) {
		if pos == k {
			tp, err := game.NewTupleFromIDs(g, ids)
			if err != nil {
				t.Fatalf("tuple: %v", err)
			}
			out = append(out, tp)
			return
		}
		for id := next; id < g.NumEdges(); id++ {
			ids[pos] = id
			rec(pos+1, id+1)
		}
	}
	rec(0, 0)
	return out
}

func allPlacements(n, nu int) [][]int {
	var out [][]int
	cur := make([]int, nu)
	var rec func(i int)
	rec = func(i int) {
		if i == nu {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for v := 0; v < n; v++ {
			cur[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// TestTheorem31AgainstBruteForce validates the pure-existence theorem on
// every small graph/parameter combination against exhaustive search.
func TestTheorem31AgainstBruteForce(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"K2":    graph.Path(2),
		"P3":    graph.Path(3),
		"P4":    graph.Path(4),
		"C3":    graph.Complete(3),
		"C4":    graph.Cycle(4),
		"C5":    graph.Cycle(5),
		"star4": graph.Star(4),
		"K4":    graph.Complete(4),
		"paw":   pawGraph(t),
	}
	for name, g := range graphs {
		for k := 1; k <= g.NumEdges() && k <= 4; k++ {
			for nu := 1; nu <= 2; nu++ {
				want := bruteForcePureNEExists(t, g, nu, k)
				got, err := HasPureNE(g, k)
				if err != nil {
					t.Fatalf("%s k=%d: %v", name, k, err)
				}
				if got != want {
					t.Errorf("%s ν=%d k=%d: HasPureNE=%v, brute force=%v", name, nu, k, got, want)
				}
			}
		}
	}
}

// pawGraph is a triangle with one pendant edge.
func pawGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {0, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// Property: BuildPureNE output always passes IsPureNE when it succeeds.
func TestPropertyBuildPureNEIsNE(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(2+rng.Intn(8), 0.4, seed)
		nu := 1 + rng.Intn(3)
		k := 1 + rng.Intn(g.NumEdges())
		gm, p, err := BuildPureNE(g, nu, k)
		if err != nil {
			return true // existence may fail; that's HasPureNE's business
		}
		ok, err := IsPureNE(gm, p)
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// NoPureNEByCorollary33 applies the counting bound of Corollary 3.3:
// whenever n >= 2k+1, every edge cover exceeds k edges, so no pure NE
// exists. This is a sufficient condition only — a cheap pre-check.
func NoPureNEByCorollary33(g *graph.Graph, k int) bool {
	return g.NumVertices() >= 2*k+1
}
