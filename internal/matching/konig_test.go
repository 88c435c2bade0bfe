package matching

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/defender-game/defender/internal/graph"
)

// konigCover runs KonigVertexCover on g's 2-coloring and the blossom
// matching, the pairing every dense caller uses.
func konigCover(t *testing.T, g *graph.Graph) (cover, side, mate []int) {
	t.Helper()
	side, err := g.Bipartition()
	if err != nil {
		t.Fatal(err)
	}
	mate = Maximum(g)
	return KonigVertexCover(g, side, mate), side, mate
}

func TestKonigVertexCover(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"path5", graph.Path(5)},
		{"even cycle", graph.Cycle(10)},
		{"star", graph.Star(9)},
		{"K35", graph.CompleteBipartite(3, 5)},
		{"grid", graph.Grid(4, 4)},
		{"tree", graph.RandomTree(20, 1)},
		{"random bipartite", graph.RandomBipartite(10, 12, 0.3, 2)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			vc, _, mate := konigCover(t, tt.g)
			// König: |VC| equals the maximum matching size.
			if len(vc) != Size(mate) {
				t.Errorf("|VC| = %d, matching size = %d", len(vc), Size(mate))
			}
			member := make(map[int]bool)
			for _, v := range vc {
				member[v] = true
			}
			for _, e := range tt.g.Edges() {
				if !member[e.U] && !member[e.V] {
					t.Fatalf("edge %v not covered", e)
				}
			}
		})
	}
}

// Property: on random bipartite graphs, the König construction over the
// blossom matching always yields a vertex cover of size equal to the
// maximum matching.
func TestPropertyKonigDuality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomBipartite(1+rng.Intn(10), 1+rng.Intn(10), rng.Float64(), seed)
		side, err := g.Bipartition()
		if err != nil {
			return false
		}
		mate := Maximum(g)
		vc := KonigVertexCover(g, side, mate)
		if len(vc) != Size(mate) {
			return false
		}
		member := make(map[int]bool)
		for _, v := range vc {
			member[v] = true
		}
		for _, e := range g.Edges() {
			if !member[e.U] && !member[e.V] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestKonigDenseMatchesCSR is the differential test of the two König
// routes: the dense cover over the blossom matching equals, vertex for
// vertex, the CSR cover over the Hopcroft–Karp matching, and the two
// 2-colorings agree. The matchings themselves may differ; the cover does
// not, because it depends on the coloring alone (Dulmage–Mendelsohn).
func TestKonigDenseMatchesCSR(t *testing.T) {
	corpus := goldenBipartite()
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Sparse draws leave isolated vertices and several components.
		p := []float64{0.05, 0.15, 0.3, 0.6}[seed%4]
		corpus[fmt.Sprintf("randbip%d", seed)] = graph.RandomBipartite(1+rng.Intn(15), 1+rng.Intn(15), p, seed)
	}
	for r := 1; r <= 5; r++ {
		corpus[fmt.Sprintf("grid%dx%d", r, r+2)] = graph.Grid(r, r+2)
	}
	for n := 4; n <= 16; n += 2 {
		corpus[fmt.Sprintf("C%d", n)] = graph.Cycle(n)
	}
	for seed := int64(1); seed <= 8; seed++ {
		corpus[fmt.Sprintf("randtree%d", seed)] = graph.RandomTree(5+3*int(seed), seed)
	}
	for name, g := range corpus {
		dense, side, _ := konigCover(t, g)
		c := graph.FromGraph(g)
		mate, csrSide, err := MaximumBipartiteCSR(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for v := range side {
			if side[v] != int(csrSide[v]) {
				t.Fatalf("%s: colorings differ at vertex %d", name, v)
			}
		}
		csr := KonigVertexCoverCSR(c, csrSide, mate)
		if len(dense) != len(csr) {
			t.Fatalf("%s: dense cover %v, CSR cover %v", name, dense, csr)
		}
		for i := range dense {
			if dense[i] != int(csr[i]) {
				t.Fatalf("%s: dense cover %v, CSR cover %v", name, dense, csr)
			}
		}
	}
}
