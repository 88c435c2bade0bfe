package matching

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/obs"
)

// enableMetrics turns the default registry on for one test or benchmark,
// so the phase counter moves, and restores its previous state afterwards.
func enableMetrics(tb testing.TB) {
	reg := obs.Default()
	was := reg.Enabled()
	reg.SetEnabled(true)
	tb.Cleanup(func() { reg.SetEnabled(was) })
}

// checkSubgraphMatching fails t unless mate is a valid matching of the
// cross-edge subgraph selected by side: symmetric, every pair a side-0 –
// side-1 edge of c, and every vertex outside sides 0 and 1 unmatched.
func checkSubgraphMatching(t *testing.T, c *graph.CSR, side []int8, mate []int32) {
	t.Helper()
	for v, u := range mate {
		if u == Unmatched {
			continue
		}
		if side[v] != 0 && side[v] != 1 {
			t.Fatalf("excluded vertex %d matched to %d", v, u)
		}
		if int(mate[u]) != v {
			t.Fatalf("mate not symmetric at %d<->%d", v, u)
		}
		if side[u] != 1-side[v] || !c.HasEdge(v, int(u)) {
			t.Fatalf("pair (%d,%d) is not a cross edge", v, u)
		}
	}
}

// bruteForceCrossMatching returns the maximum matching size of the
// subgraph of c made of side-0 – side-1 edges by exhaustive search: each
// left vertex in turn stays unmatched or takes each free right neighbour.
// Exponential; for fuzz-sized inputs only.
func bruteForceCrossMatching(c *graph.CSR, side []int8) int {
	used := make([]bool, c.NumVertices())
	var best func(v int) int
	best = func(v int) int {
		for v < len(side) && side[v] != 0 {
			v++
		}
		if v == len(side) {
			return 0
		}
		b := best(v + 1)
		for _, u := range c.Neighbors(v) {
			if side[u] == 1 && !used[u] {
				used[u] = true
				b = max(b, 1+best(v+1))
				used[u] = false
			}
		}
		return b
	}
	return best(0)
}

// goldenBipartite is the golden corpus of bipartite graphs the CSR
// Hopcroft–Karp and König routes are differentially tested on against the
// dense blossom and König: named families with known matching numbers
// plus seeded random families.
func goldenBipartite() map[string]*graph.Graph {
	corpus := map[string]*graph.Graph{
		"empty":      graph.New(0),
		"isolated4":  graph.New(4),
		"single":     graph.Path(2),
		"path7":      graph.Path(7),
		"path8":      graph.Path(8),
		"cycle10":    graph.Cycle(10),
		"star9":      graph.Star(9),
		"k33":        graph.CompleteBipartite(3, 3),
		"k27":        graph.CompleteBipartite(2, 7),
		"k55":        graph.CompleteBipartite(5, 5),
		"grid45":     graph.Grid(4, 5),
		"hypercube4": graph.Hypercube(4),
		"heawood":    graph.Heawood(),
		"matching12": graph.PerfectMatchingGraph(12),
		"tree3":      graph.CompleteBinaryTree(3),
		"cater":      graph.Caterpillar(6, 2),
	}
	gen := graph.NewSeededGenerator(13)
	for i := 0; i < 6; i++ {
		corpus[fmt.Sprintf("bip%d", i)] = gen.Bipartite(8+3*i, 8+2*i, 0.25)
	}
	for i := 0; i < 4; i++ {
		corpus[fmt.Sprintf("tree%d", i)] = gen.Tree(20 + 10*i)
	}
	corpus["baBip"] = gen.BarabasiAlbertBipartiteCSR(200, 3).ToGraph()
	return corpus
}

// TestHopcroftKarpCSRMatchesDense is the differential acceptance test: on
// every golden graph the CSR Hopcroft–Karp and the dense blossom return
// matchings of equal cardinality, and the CSR matching is a valid matching
// of the graph.
func TestHopcroftKarpCSRMatchesDense(t *testing.T) {
	for name, g := range goldenBipartite() {
		denseMate := Maximum(g)
		c := graph.FromGraph(g)
		mate, side, err := MaximumBipartiteCSR(c)
		if err != nil {
			t.Fatalf("%s: csr: %v", name, err)
		}
		if got, want := SizeCSR(mate), Size(denseMate); got != want {
			t.Errorf("%s: CSR matching size %d, dense %d", name, got, want)
		}
		for v := range mate {
			u := mate[v]
			if u == Unmatched {
				continue
			}
			if int(mate[u]) != v {
				t.Fatalf("%s: mate not symmetric at %d<->%d", name, v, u)
			}
			if !g.HasEdge(v, int(u)) {
				t.Fatalf("%s: pair (%d,%d) is not an edge", name, v, u)
			}
		}
		// König duality on the sparse path: |cover| = |matching| and the
		// cover covers every edge.
		cover := KonigVertexCoverCSR(c, side, mate)
		if len(cover) != SizeCSR(mate) {
			t.Errorf("%s: König cover size %d != matching size %d", name, len(cover), SizeCSR(mate))
		}
		in := make(map[int]bool, len(cover))
		for _, v := range cover {
			in[int(v)] = true
		}
		for _, e := range g.Edges() {
			if !in[e.U] && !in[e.V] {
				t.Fatalf("%s: edge %v uncovered by König cover", name, e)
			}
		}
	}
}

// TestHopcroftKarpCSRValidation checks the bipartite entry point rejects
// an odd cycle with graph.ErrNotBipartite and matches an even path
// perfectly.
func TestHopcroftKarpCSRValidation(t *testing.T) {
	if _, _, err := MaximumBipartiteCSR(graph.FromGraph(graph.Cycle(5))); !errors.Is(err, graph.ErrNotBipartite) {
		t.Errorf("odd cycle accepted: %v", err)
	}
	mate, _, err := MaximumBipartiteCSR(graph.FromGraph(graph.Path(4)))
	if err != nil {
		t.Fatal(err)
	}
	if SizeCSR(mate) != 2 {
		t.Errorf("P4 matching size %d, want 2", SizeCSR(mate))
	}
}

// maxBipartite runs the CSR Hopcroft–Karp on g and fails t unless it
// returns a valid matching of g, converted to a dense mate array.
func maxBipartite(t *testing.T, g *graph.Graph) []int {
	t.Helper()
	mate32, _, err := MaximumBipartiteCSR(graph.FromGraph(g))
	if err != nil {
		t.Fatalf("MaximumBipartiteCSR: %v", err)
	}
	mate := make([]int, len(mate32))
	for v, u := range mate32 {
		mate[v] = int(u)
	}
	if err := Verify(g, mate); err != nil {
		t.Fatalf("invalid matching: %v", err)
	}
	return mate
}

func TestHopcroftKarpKnownSizes(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"single edge", graph.Path(2), 1},
		{"path5", graph.Path(5), 2},
		{"path6", graph.Path(6), 3},
		{"even cycle", graph.Cycle(8), 4},
		{"star", graph.Star(6), 1},
		{"K34", graph.CompleteBipartite(3, 4), 3},
		{"K44", graph.CompleteBipartite(4, 4), 4},
		{"grid34", graph.Grid(3, 4), 6},
		{"hypercube3", graph.Hypercube(3), 4},
		{"disjoint edges", graph.PerfectMatchingGraph(10), 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			mate := maxBipartite(t, tt.g)
			if got := Size(mate); got != tt.want {
				t.Errorf("matching size = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestHopcroftKarpMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := 1+rng.Intn(4), 1+rng.Intn(4)
		g := graph.RandomBipartite(a, b, 0.5, seed)
		if g.NumEdges() > 16 {
			continue
		}
		mate := maxBipartite(t, g)
		if got, want := Size(mate), bruteForceMaximumMatchingSize(g); got != want {
			t.Fatalf("seed %d: HK size %d, brute force %d\n%s", seed, got, want, g.EncodeString())
		}
	}
}

// TestHopcroftKarpCSRSubgraph checks the SDR entry point: excluded
// vertices (side -1) stay unmatched, same-side edges are ignored rather
// than rejected, and the cross-edge subgraph is matched maximally.
func TestHopcroftKarpCSRSubgraph(t *testing.T) {
	// K4 with side = {0, 1, 1, -1}: cross edges are (0,1) and (0,2); the
	// same-side edge (1,2) and everything touching 3 must be ignored.
	c := graph.FromGraph(graph.Complete(4))
	mate := HopcroftKarpCSRSubgraph(c, []int8{0, 1, 1, -1})
	if SizeCSR(mate) != 1 {
		t.Fatalf("matching size %d, want 1", SizeCSR(mate))
	}
	if mate[3] != Unmatched {
		t.Fatal("excluded vertex matched")
	}
	if mate[0] != 1 && mate[0] != 2 {
		t.Fatalf("vertex 0 matched to %d, want 1 or 2", mate[0])
	}
	// A perfect SDR case: C6 with alternating sides saturates side 0.
	c6 := graph.FromGraph(graph.Cycle(6))
	mate = HopcroftKarpCSRSubgraph(c6, []int8{0, 1, 0, 1, 0, 1})
	if SizeCSR(mate) != 3 {
		t.Fatalf("C6 matching size %d, want 3", SizeCSR(mate))
	}
}

// FuzzHopcroftKarpCSRSubgraph differentially checks the subgraph entry
// against bruteForceCrossMatching. The first byte picks n ≤ 12, the next
// n bytes side[v] ∈ {-1, 0, 1}, and the bits of the rest select the edges
// among the vertex pairs in (0,1), (0,2), ..., (n-2,n-1) order; missing
// bytes read as zero, so every input decodes to a simple graph.
func FuzzHopcroftKarpCSRSubgraph(f *testing.F) {
	f.Add([]byte{3, 1, 2, 2, 0, 0x3f})             // K4, vertex 3 excluded
	f.Add([]byte{3, 1, 2, 2, 1, 0x13})             // the path 2-0-1-3
	f.Add([]byte{5, 1, 2, 1, 2, 1, 2, 0x21, 0x52}) // P6, alternating sides
	// K12 split 6+6, so the cross edges form K6,6.
	f.Add([]byte{11, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		n := 1 + int(at(0))%12
		side := make([]int8, n)
		for v := range side {
			side[v] = int8(at(1+v)%3) - 1
		}
		var us, vs []int32
		bit := 8 * (1 + n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if at(bit/8)&(1<<(bit%8)) != 0 {
					us, vs = append(us, int32(u)), append(vs, int32(v))
				}
				bit++
			}
		}
		c := buildCSR(t, n, us, vs)
		mate := HopcroftKarpCSRSubgraph(c, side)
		checkSubgraphMatching(t, c, side, mate)
		if got, want := SizeCSR(mate), bruteForceCrossMatching(c, side); got != want {
			t.Fatalf("matching size %d, brute force %d (side %v, edges %v %v)", got, want, side, us, vs)
		}
	})
}

// buildCSR builds a CSR from parallel endpoint slices, failing t on a
// malformed list.
func buildCSR(t *testing.T, n int, us, vs []int32) *graph.CSR {
	t.Helper()
	c, err := graph.BuildCSR(n, us, vs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// zigzagPath returns the path r0 - l0 - r1 - l1 - ... - r(k-1) - l(k-1)
// with left vertices 0..k-1 and right labels falling along the path
// (r_i = 2k-1-i), so first-fit greedy hands every l_i its later neighbour
// r_(i+1) and strands l(k-1): k-1 pairs where k exist.
func zigzagPath(t *testing.T, k int) *graph.CSR {
	var us, vs []int32
	for i := 0; i < k; i++ {
		us, vs = append(us, int32(i)), append(vs, int32(2*k-1-i))
		if i+1 < k {
			us, vs = append(us, int32(i)), append(vs, int32(2*k-2-i))
		}
	}
	return buildCSR(t, 2*k, us, vs)
}

// starWithPendant returns the star with centre 0 and leaves 1..s plus a
// pendant vertex s+1 on leaf 1. First-fit greedy matches the centre to
// leaf 1 and strands the pendant: one pair where two exist.
func starWithPendant(t *testing.T, s int) *graph.CSR {
	us, vs := []int32{1}, []int32{int32(s + 1)}
	for i := 1; i <= s; i++ {
		us, vs = append(us, 0), append(vs, int32(i))
	}
	return buildCSR(t, s+2, us, vs)
}

// TestHopcroftKarpCSRWarmStartForests pins the Karp–Sipser warm start on
// degree-1 chains labelled so that first-fit greedy (each left vertex in
// index order taking its first free neighbour) is not maximum. A forest
// always has a vertex of live degree 1 until its free part is edgeless, so
// the degree-1 rule alone matches it maximally and no phase runs.
func TestHopcroftKarpCSRWarmStartForests(t *testing.T) {
	enableMetrics(t)
	cases := []struct {
		name string
		c    *graph.CSR
		want int
	}{
		{"zigzag path", zigzagPath(t, 2), 2}, // first-fit: 1
		// The path 1-3-0-4-2-5 with left side {0, 1, 2}: vertex 0 ties
		// between 3 and 4 at degree 2 and a min-degree pick takes 3,
		// stranding 1, so only the degree-1 rule finds all three pairs.
		{"tied path", buildCSR(t, 6, []int32{1, 3, 0, 4, 2}, []int32{3, 0, 4, 2, 5}), 3}, // first-fit and min-degree: 2
		{"long zigzag path", zigzagPath(t, 9), 9},                                        // first-fit: 8
		{"star with pendant", starWithPendant(t, 5), 2},                                  // first-fit: 1
		{"caterpillar", graph.FromGraph(graph.Caterpillar(6, 2)), 6},                     // first-fit: 3
	}
	for _, tc := range cases {
		c := tc.c
		before := obsCSRHKPhases.Value()
		mate, side, err := MaximumBipartiteCSR(c)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkSubgraphMatching(t, c, side, mate)
		if got := SizeCSR(mate); got != tc.want {
			t.Errorf("%s: matching size %d, want %d", tc.name, got, tc.want)
		}
		if phases := obsCSRHKPhases.Value() - before; phases != 0 {
			t.Errorf("%s: %d phases after the warm start, want 0", tc.name, phases)
		}
	}
}

// TestHopcroftKarpCSRLarge exercises the iterative DFS and bitset frontier
// machinery on an instance deep enough that the warm start leaves work for
// the phases.
func TestHopcroftKarpCSRLarge(t *testing.T) {
	enableMetrics(t)
	c := graph.NewSeededGenerator(17).BarabasiAlbertBipartiteCSR(20000, 3)
	before := obsCSRHKPhases.Value()
	mate, side, err := MaximumBipartiteCSR(c)
	if err != nil {
		t.Fatal(err)
	}
	if obsCSRHKPhases.Value() == before {
		t.Fatal("no BFS/DFS phase ran: the warm start alone was maximum, so the phases went untested")
	}
	checkSubgraphMatching(t, c, side, mate)
	size := SizeCSR(mate)
	if size == 0 {
		t.Fatal("empty matching on a connected graph")
	}
	cover := KonigVertexCoverCSR(c, side, mate)
	if len(cover) != size {
		t.Fatalf("König duality violated: cover %d, matching %d", len(cover), size)
	}
	covered := graph.NewBitset(c.NumVertices())
	for _, v := range cover {
		covered.Set(v)
	}
	c.EachEdge(func(u, v int32) {
		if !covered.Has(u) && !covered.Has(v) {
			t.Fatalf("edge (%d,%d) uncovered", u, v)
		}
	})
}

var benchMate []int32

// BenchmarkHopcroftKarpCSR times the engine alone on a seeded 10^5-vertex
// BA-bipartite graph, the sparse-1m family at a tenth of its size, and
// reports allocations and the BFS/DFS phases that follow the warm start.
// The coloring comes from a twin CSR: c's own is never memoized, so every
// iteration runs the engine instead of copying c's memoized matching.
func BenchmarkHopcroftKarpCSR(b *testing.B) {
	enableMetrics(b)
	gen := func() *graph.CSR { return graph.NewSeededGenerator(1).BarabasiAlbertBipartiteCSR(100_000, 3) }
	c := gen()
	side, err := gen().Bipartition()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	before := obsCSRHKPhases.Value()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchMate = HopcroftKarpCSRSubgraph(c, side)
	}
	b.StopTimer()
	b.ReportMetric(float64(obsCSRHKPhases.Value()-before)/float64(b.N), "phases/op")
}
