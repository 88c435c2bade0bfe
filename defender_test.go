package defender_test

import (
	"errors"
	"math/big"
	"strings"
	"testing"

	defender "github.com/defender-game/defender"
)

// TestEndToEndBipartite walks the full public API on a bipartite instance:
// partition, solve, verify, lift/reduce, simulate.
func TestEndToEndBipartite(t *testing.T) {
	g := defender.GridGraph(3, 4)
	const nu, k = 10, 3

	p, err := defender.FindPartition(g)
	if err != nil {
		t.Fatalf("FindPartition: %v", err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatalf("partition invalid: %v", err)
	}

	ne, err := defender.Solve(g, nu, k)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := defender.VerifyNE(ne.Game, ne.Profile); err != nil {
		t.Fatalf("VerifyNE: %v", err)
	}
	if err := defender.VerifyCharacterization(ne.Game, ne.Profile); err != nil {
		t.Fatalf("VerifyCharacterization: %v", err)
	}

	// Headline linearity at the API level.
	base, err := defender.SolveEdge(g, nu)
	if err != nil {
		t.Fatalf("SolveEdge: %v", err)
	}
	want := new(big.Rat).Mul(base.DefenderGain(), big.NewRat(k, 1))
	if got := ne.DefenderGain(); got.Cmp(want) != 0 {
		t.Errorf("gain = %v, want %v = k·edge-gain", got, want)
	}

	lifted, err := defender.Lift(base, k)
	if err != nil {
		t.Fatalf("Lift: %v", err)
	}
	back, err := defender.Reduce(lifted)
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	if back.DefenderGain().Cmp(base.DefenderGain()) != 0 {
		t.Error("round trip changed the gain")
	}

	res, err := defender.Simulate(ne.Game, ne.Profile, 5000, 1)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if z := res.ZScore(); z > 5 || z < -5 {
		t.Errorf("simulation z-score %v out of range", z)
	}
}

func TestPureAPI(t *testing.T) {
	g := defender.CycleGraph(6)
	has, err := defender.HasPureNE(g, 3)
	if err != nil || !has {
		t.Fatalf("HasPureNE(C6,3) = (%v,%v)", has, err)
	}
	gm, p, err := defender.BuildPureNE(g, 2, 3)
	if err != nil {
		t.Fatalf("BuildPureNE: %v", err)
	}
	ok, err := defender.IsPureNE(gm, p)
	if err != nil || !ok {
		t.Fatalf("IsPureNE = (%v,%v)", ok, err)
	}
	if _, _, err := defender.BuildPureNE(g, 2, 2); !errors.Is(err, defender.ErrNoPureNE) {
		t.Errorf("k=2: err = %v, want ErrNoPureNE", err)
	}
}

func TestNonExistenceErrors(t *testing.T) {
	if _, err := defender.Solve(defender.CompleteGraph(5), 2, 2); !errors.Is(err, defender.ErrNoMatchingNE) {
		t.Errorf("K5: err = %v, want ErrNoMatchingNE", err)
	}
	if _, err := defender.FindPartition(defender.CycleGraph(7)); !errors.Is(err, defender.ErrNoPartition) {
		t.Errorf("C7: err = %v, want ErrNoPartition", err)
	}
	base, err := defender.SolveEdge(defender.PathGraph(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := defender.Lift(base, 5); !errors.Is(err, defender.ErrKTooLarge) {
		t.Errorf("lift: err = %v, want ErrKTooLarge", err)
	}
}

// TestSolveWithPartitionChecksRep: a caller-supplied Rep is the expander
// witness the solve trusts, so a wrong one is refused, and a right one
// gives the same equilibrium as letting the solver find its own.
func TestSolveWithPartitionChecksRep(t *testing.T) {
	g := defender.CycleGraph(6)
	is, vc := []int{0, 2, 4}, []int{1, 3, 5}
	for name, rep := range map[string]map[int]int{
		"non-neighbour":      {1: 4, 3: 2, 5: 0},
		"repeated IS vertex": {1: 2, 3: 2, 5: 4},
		"missing VC vertex":  {1: 0, 3: 2},
	} {
		p := defender.Partition{IS: is, VC: vc, Rep: rep}
		if _, err := defender.SolveWithPartition(g, 2, 2, p); err == nil {
			t.Errorf("%s: SolveWithPartition accepted Rep %v", name, rep)
		}
	}
	found, err := defender.SolveWithPartition(g, 2, 2, defender.Partition{IS: is, VC: vc})
	if err != nil {
		t.Fatalf("nil Rep: %v", err)
	}
	p, err := defender.FindPartition(g)
	if err != nil {
		t.Fatal(err)
	}
	given, err := defender.SolveWithPartition(g, 2, 2, p)
	if err != nil {
		t.Fatalf("FindPartition's Rep: %v", err)
	}
	for _, ne := range []defender.TupleEquilibrium{found, given} {
		if err := defender.VerifyNE(ne.Game, ne.Profile); err != nil {
			t.Fatal(err)
		}
	}
	if found.DefenderGain().Cmp(given.DefenderGain()) != 0 {
		t.Errorf("gains differ: %v vs %v", found.DefenderGain(), given.DefenderGain())
	}
}

func TestStructuralAPI(t *testing.T) {
	pm, err := defender.PerfectMatchingNE(defender.PetersenGraph(), 4, 2)
	if err != nil {
		t.Fatalf("PerfectMatchingNE: %v", err)
	}
	if err := defender.VerifyNE(pm.Game, pm.Profile); err != nil {
		t.Fatal(err)
	}
	reg, err := defender.RegularGraphEdgeNE(defender.CycleGraph(5), 3)
	if err != nil {
		t.Fatalf("RegularGraphEdgeNE: %v", err)
	}
	if err := defender.VerifyNE(reg.Game, reg.Profile); err != nil {
		t.Fatal(err)
	}
	ok, path, err := defender.HasPurePathNE(defender.CycleGraph(6), 5)
	if err != nil || !ok || len(path) != 6 {
		t.Errorf("path model: ok=%v path=%v err=%v", ok, path, err)
	}
}

func TestGraphUtilitiesAPI(t *testing.T) {
	g, err := defender.ParseGraphString("n 4\n0 1\n1 2\n2 3\n3 0\n")
	if err != nil {
		t.Fatalf("ParseGraphString: %v", err)
	}
	if g.NumEdges() != 4 {
		t.Errorf("m = %d", g.NumEdges())
	}
	if _, err := defender.ParseGraph(strings.NewReader("bogus line\n")); err == nil {
		t.Error("bad input must fail")
	}
	ec, err := defender.MinimumEdgeCover(g)
	if err != nil || len(ec) != 2 {
		t.Errorf("MinimumEdgeCover: %v %v", ec, err)
	}
	vc, err := defender.MinimumVertexCoverBipartite(g)
	if err != nil || len(vc) != 2 {
		t.Errorf("MinimumVertexCoverBipartite: %v %v", vc, err)
	}
	fresh := defender.NewGraph(3)
	if fresh.NumVertices() != 3 {
		t.Error("NewGraph")
	}
	gm, err := defender.NewGame(g, 2, 1)
	if err != nil || gm.Attackers() != 2 {
		t.Errorf("NewGame: %v", err)
	}
}

func TestGeneratorsExported(t *testing.T) {
	cases := []struct {
		name string
		g    *defender.Graph
		n    int
	}{
		{"path", defender.PathGraph(4), 4},
		{"cycle", defender.CycleGraph(5), 5},
		{"complete", defender.CompleteGraph(4), 4},
		{"bipartite", defender.CompleteBipartiteGraph(2, 3), 5},
		{"star", defender.StarGraph(6), 6},
		{"grid", defender.GridGraph(2, 3), 6},
		{"hypercube", defender.HypercubeGraph(3), 8},
		{"petersen", defender.PetersenGraph(), 10},
		{"gnp", defender.RandomGNP(7, 0.5, 1), 7},
		{"randbip", defender.RandomBipartiteGraph(3, 4, 0.5, 1), 7},
		{"tree", defender.RandomTreeGraph(9, 1), 9},
		{"randconn", defender.RandomConnectedGraph(8, 0.2, 1), 8},
	}
	for _, c := range cases {
		if c.g.NumVertices() != c.n {
			t.Errorf("%s: n = %d, want %d", c.name, c.g.NumVertices(), c.n)
		}
	}
}
