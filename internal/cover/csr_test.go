package cover

import (
	"errors"
	"testing"

	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/matching"
)

// chordedC4 is the smallest non-bipartite graph admitting a partition:
// C4 (0-1-2-3-0) plus the chord (1,3). IS = {0, 2}, VC = {1, 3}.
func chordedC4() *graph.CSR {
	g := graph.Cycle(4)
	if err := g.AddEdge(1, 3); err != nil {
		panic(err)
	}
	return graph.FromGraph(g)
}

// TestFindNEPartitionCSRBipartiteMatchesDense checks the bipartite
// (König) route of FindNEPartitionCSR against the dense König route: the
// two covers are equal, although one is built on the Hopcroft–Karp
// matching and the other on the blossom matching.
func TestFindNEPartitionCSRBipartiteMatchesDense(t *testing.T) {
	gen := graph.NewSeededGenerator(23)
	cases := map[string]*graph.Graph{
		"path7": graph.Path(7),
		"k33":   graph.CompleteBipartite(3, 3),
		"grid":  graph.Grid(4, 5),
		"tree":  gen.Tree(40),
		"bip":   gen.Bipartite(12, 15, 0.3),
		"baBip": gen.BarabasiAlbertBipartiteCSR(400, 3).ToGraph(),
	}
	for name, g := range cases {
		c := graph.FromGraph(g)
		p, err := FindNEPartitionCSR(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.Validate(c); err != nil {
			t.Fatalf("%s: invalid partition: %v", name, err)
		}
		checkKonigMatchesCSR(t, g)
	}
}

func TestFindNEPartitionCSRRouting(t *testing.T) {
	// Non-bipartite with a partition: routed to the greedy search.
	c := chordedC4()
	p, err := FindNEPartitionCSR(c)
	if err != nil {
		t.Fatalf("chorded C4: %v", err)
	}
	if err := p.Validate(c); err != nil {
		t.Fatalf("chorded C4: invalid partition: %v", err)
	}
	// C5 admits no partition; the heuristic must give up, not mislabel.
	if _, err := FindNEPartitionCSR(graph.FromGraph(graph.Cycle(5))); !errors.Is(err, ErrPartitionNotFound) {
		t.Errorf("C5: got %v, want ErrPartitionNotFound", err)
	}
	// Isolated vertices make the game ill-defined.
	if _, err := FindNEPartitionCSR(graph.FromGraph(graph.New(3))); !errors.Is(err, ErrIsolatedVertex) {
		t.Errorf("edgeless: got %v, want ErrIsolatedVertex", err)
	}
}

func TestMinimumEdgeCoverCSRGallai(t *testing.T) {
	gen := graph.NewSeededGenerator(29)
	for _, g := range []*graph.Graph{
		graph.Path(9),
		graph.CompleteBipartite(2, 5),
		gen.Connected(30, 0.15),
		gen.BarabasiAlbertBipartiteCSR(300, 2).ToGraph(),
	} {
		if !g.IsBipartite() {
			t.Skip("corpus graph unexpectedly non-bipartite")
		}
		c := graph.FromGraph(g)
		mate, _, err := matching.MaximumBipartiteCSR(c)
		if err != nil {
			t.Fatal(err)
		}
		us, vs, err := MinimumEdgeCoverCSRFromMatching(c, mate)
		if err != nil {
			t.Fatal(err)
		}
		if want := c.NumVertices() - matching.SizeCSR(mate); len(us) != want {
			t.Fatalf("cover size %d, want n-mu = %d", len(us), want)
		}
		covered := graph.NewBitset(c.NumVertices())
		for i := range us {
			if !c.HasEdge(int(us[i]), int(vs[i])) {
				t.Fatalf("cover edge (%d,%d) not in graph", us[i], vs[i])
			}
			covered.Set(us[i])
			covered.Set(vs[i])
		}
		for v := 0; v < c.NumVertices(); v++ {
			if !covered.Has(int32(v)) {
				t.Fatalf("vertex %d uncovered", v)
			}
		}
	}
}

func TestMinimumEdgeCoverCSRRejectsIsolated(t *testing.T) {
	c := graph.FromGraph(graph.New(2))
	if _, _, err := MinimumEdgeCoverCSRFromMatching(c, []int32{-1, -1}); !errors.Is(err, ErrIsolatedVertex) {
		t.Errorf("got %v, want ErrIsolatedVertex", err)
	}
}

func TestGreedyIndependentSetCSRIsMaximalIndependent(t *testing.T) {
	g := graph.NewSeededGenerator(31).GNP(40, 0.2)
	c := graph.FromGraph(g)
	order := make([]int32, c.NumVertices())
	for i := range order {
		order[i] = int32(i)
	}
	is := greedyIndependentSetCSR(c, order)
	member := graph.NewBitset(c.NumVertices())
	for _, v := range is {
		member.Set(v)
	}
	c.EachEdge(func(u, v int32) {
		if member.Has(u) && member.Has(v) {
			t.Fatalf("edge (%d,%d) inside the independent set", u, v)
		}
	})
	// Maximality: every vertex outside is dominated by the set.
	for v := 0; v < c.NumVertices(); v++ {
		if member.Has(int32(v)) {
			continue
		}
		dominated := false
		for _, u := range c.Neighbors(v) {
			if member.Has(u) {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Fatalf("vertex %d could be added: set not maximal", v)
		}
	}
}

func TestPartitionCSRValidateRejectsCorruption(t *testing.T) {
	c := graph.FromGraph(graph.CompleteBipartite(2, 2))
	p, err := FindNEPartitionCSR(c)
	if err != nil {
		t.Fatal(err)
	}
	bad := p
	bad.Rep = append([]int32(nil), p.Rep...)
	for _, v := range bad.VC {
		bad.Rep[v] = bad.Rep[bad.VC[0]] // reuse one representative
	}
	if len(bad.VC) > 1 && bad.Validate(c) == nil {
		t.Error("reused representative accepted")
	}
	bad = p
	bad.IS = p.VC // not independent in K22 and not a partition
	if bad.Validate(c) == nil {
		t.Error("corrupted IS accepted")
	}
}
