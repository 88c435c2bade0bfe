package cover

import (
	"errors"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/matching"
)

func TestFindNEPartitionBipartiteFamilies(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"single edge", graph.Path(2)},
		{"path7", graph.Path(7)},
		{"C10", graph.Cycle(10)},
		{"star", graph.Star(12)},
		{"K47", graph.CompleteBipartite(4, 7)},
		{"grid45", graph.Grid(4, 5)},
		{"hypercube4", graph.Hypercube(4)},
		{"tree", graph.RandomTree(30, 3)},
		{"random bipartite", graph.RandomBipartite(12, 15, 0.25, 4)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p, err := FindNEPartition(tt.g)
			if err != nil {
				t.Fatalf("FindNEPartition: %v", err)
			}
			if err := p.Validate(tt.g); err != nil {
				t.Fatalf("Validate: %v", err)
			}
		})
	}
}

func TestFindNEPartitionExactProvenNegative(t *testing.T) {
	// Odd cycles C5, C7: max IS leaves |VC| = |IS|+1, no SDR into IS.
	for _, n := range []int{3, 5, 7, 9} {
		if _, err := FindNEPartition(graph.Cycle(n)); !errors.Is(err, ErrNoPartition) {
			t.Errorf("C%d: err = %v, want ErrNoPartition", n, err)
		}
	}
	// Complete graphs K_n, n >= 3: IS size 1, VC size n-1.
	for _, n := range []int{3, 4, 6} {
		if _, err := FindNEPartition(graph.Complete(n)); !errors.Is(err, ErrNoPartition) {
			t.Errorf("K%d: err = %v, want ErrNoPartition", n, err)
		}
	}
	// Petersen: ν = 5 but τ = 6, so it is not König–Egerváry.
	if _, err := FindNEPartition(graph.Petersen()); !errors.Is(err, ErrNoPartition) {
		t.Errorf("Petersen: err = %v, want ErrNoPartition", err)
	}
}

func TestFindNEPartitionExactPositive(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"K2": graph.Path(2), "C4": graph.Cycle(4), "C6": graph.Cycle(6), "C8": graph.Cycle(8),
		"K5 corona": corona(graph.Complete(5)), "Petersen corona": corona(graph.Petersen()),
	} {
		p, err := FindNEPartition(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.Validate(g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// The exponential enumeration stops at 64 vertices; FindNEPartition has
// no size limit.
func TestFindNEPartitionExactTooLarge(t *testing.T) {
	if err := EnumerateNEPartitions(graph.Cycle(67), func(Partition) bool { return true }); !errors.Is(err, ErrTooLarge) {
		t.Errorf("enumeration, n>64: err = %v, want ErrTooLarge", err)
	}
	if _, err := FindNEPartition(graph.Cycle(67)); !errors.Is(err, ErrNoPartition) {
		t.Errorf("C67: err = %v, want ErrNoPartition", err)
	}
	g := corona(graph.Complete(40))
	p, err := FindNEPartition(g)
	if err != nil {
		t.Fatalf("K40 corona: %v", err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatalf("K40 corona: %v", err)
	}
}

// corona hangs one pendant vertex off every vertex of h: the pendants
// form the IS, h the VC, and the pendant edges are the SDR.
func corona(h *graph.Graph) *graph.Graph {
	n := h.NumVertices()
	g := graph.New(2 * n)
	for _, e := range h.Edges() {
		_ = g.AddEdge(e.U, e.V)
	}
	for v := 0; v < n; v++ {
		_ = g.AddEdge(v, n+v)
	}
	return g
}

func TestFindNEPartitionCombined(t *testing.T) {
	// Bipartite route.
	if p, err := FindNEPartition(graph.Grid(3, 3)); err != nil || p.Validate(graph.Grid(3, 3)) != nil {
		t.Errorf("grid: %v", err)
	}
	// König–Egerváry route, positive: the bull graph, a triangle with two
	// pendant vertices on distinct corners.
	bull := graph.New(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {0, 3}, {1, 4}} {
		if err := bull.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	p, err := FindNEPartition(bull)
	if err != nil {
		t.Fatalf("bull graph: %v", err)
	}
	if err := p.Validate(bull); err != nil {
		t.Fatal(err)
	}
	// König–Egerváry route, negative.
	if _, err := FindNEPartition(graph.Complete(5)); !errors.Is(err, ErrNoPartition) {
		t.Errorf("K5: err = %v, want ErrNoPartition", err)
	}
	// Isolated vertex rejected.
	lonely := graph.New(3)
	if err := lonely.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := FindNEPartition(lonely); !errors.Is(err, ErrIsolatedVertex) {
		t.Errorf("isolated: err = %v, want ErrIsolatedVertex", err)
	}
}

// checkAgainstEnumeration asserts that FindNEPartition agrees with the
// exact enumeration on g (a partition exists iff the enumeration visits
// one) and that any partition it returns is valid, with sorted sides.
func checkAgainstEnumeration(t *testing.T, g *graph.Graph) {
	t.Helper()
	exists := false
	if err := EnumerateNEPartitions(g, func(Partition) bool { exists = true; return false }); err != nil {
		t.Fatal(err)
	}
	p, err := FindNEPartition(g)
	switch {
	case err == nil && !exists:
		t.Fatalf("FindNEPartition returned %+v, enumeration finds none (edges %v)", p, g.Edges())
	case err == nil:
		if err := p.Validate(g); err != nil {
			t.Fatalf("invalid partition %+v: %v (edges %v)", p, err, g.Edges())
		}
		if !sort.IntsAreSorted(p.IS) || !sort.IntsAreSorted(p.VC) {
			t.Fatalf("unsorted partition %+v", p)
		}
	case !errors.Is(err, ErrNoPartition):
		t.Fatalf("FindNEPartition: %v (edges %v)", err, g.Edges())
	case exists:
		t.Fatalf("FindNEPartition says no partition, enumeration finds one (edges %v)", g.Edges())
	}
}

// graphFromPairMask builds the graph on n vertices whose edges are the
// pairs u < v, numbered 0, 1, ... in lexicographic order, for which bit
// reports true.
func graphFromPairMask(n int, bit func(i int) bool) *graph.Graph {
	g := graph.New(n)
	i := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if bit(i) {
				_ = g.AddEdge(u, v)
			}
			i++
		}
	}
	return g
}

// Every labelled graph on 2–6 vertices with no isolated vertex.
func TestFindNEPartitionExhaustiveSmall(t *testing.T) {
	checked := 0
	for n := 2; n <= 6; n++ {
		pairs := n * (n - 1) / 2
		for mask := 0; mask < 1<<pairs; mask++ {
			g := graphFromPairMask(n, func(i int) bool { return mask&(1<<i) != 0 })
			if g.HasIsolatedVertex() {
				continue
			}
			checkAgainstEnumeration(t, g)
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no graphs checked")
	}
}

// FuzzFindNEPartition differentially checks FindNEPartition against the
// exact enumeration on graphs of up to 12 vertices: data[0] picks n and
// the following bytes are a bitmask over the vertex pairs. On bipartite
// inputs it also checks the König route against the sparse one: the
// dense cover over the blossom matching must equal FindNEPartitionCSR's
// cover over the Hopcroft–Karp matching.
func FuzzFindNEPartition(f *testing.F) {
	f.Add([]byte{2, 0x07})             // K3
	f.Add([]byte{4, 0x57})             // bull: triangle 0-1-2, pendants 0-3 and 1-4
	f.Add([]byte{3, 0x29})             // P4 0-1-2-3, bipartite
	f.Add([]byte{5, 0x01, 0x42})       // edges 0-1, 2-3, 4-5: bipartite, disconnected
	f.Add([]byte{9, 0xff, 0xff, 0x0f}) // n = 10, the first 20 pairs
	f.Add([]byte{11, 0xa5, 0x5a, 0xa5, 0x5a, 0xa5, 0x5a, 0xa5, 0x5a, 0xa5})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		n := 1 + int(at(0))%12
		g := graphFromPairMask(n, func(i int) bool { return at(1+i/8)&(1<<(i%8)) != 0 })
		if g.HasIsolatedVertex() {
			t.Skip()
		}
		checkAgainstEnumeration(t, g)
		if g.IsBipartite() {
			checkKonigMatchesCSR(t, g)
		}
	})
}

// checkKonigMatchesCSR asserts that FindNEPartition's cover on the
// bipartite graph g is, vertex for vertex, FindNEPartitionCSR's.
func checkKonigMatchesCSR(t *testing.T, g *graph.Graph) {
	t.Helper()
	dense, err := FindNEPartition(g)
	if err != nil {
		t.Fatalf("FindNEPartition: %v", err)
	}
	sparse, err := FindNEPartitionCSR(graph.FromGraph(g))
	if err != nil {
		t.Fatalf("FindNEPartitionCSR: %v", err)
	}
	if len(dense.VC) != len(sparse.VC) {
		t.Fatalf("dense cover %v, CSR cover %v (edges %v)", dense.VC, sparse.VC, g.Edges())
	}
	for i, v := range dense.VC {
		if int(sparse.VC[i]) != v {
			t.Fatalf("dense cover %v, CSR cover %v (edges %v)", dense.VC, sparse.VC, g.Edges())
		}
	}
}

// A 32-vertex non-bipartite graph with a partition that 32 greedy
// maximal independent sets (natural, degree-sorted and shuffled orders)
// all miss. It has no perfect matching, so no other equilibrium family
// covers it either.
func TestFindNEPartitionGreedyMissRegression(t *testing.T) {
	data, err := os.ReadFile("testdata/greedy_miss.g6")
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.ParseGraph6(strings.TrimSpace(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	if g.IsBipartite() || g.NumVertices() < 30 {
		t.Fatalf("regression graph must be non-bipartite with n >= 30, got n=%d", g.NumVertices())
	}
	p, err := FindNEPartition(g)
	if err != nil {
		t.Fatalf("FindNEPartition: %v", err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if len(p.VC) != matching.Size(matching.Maximum(g)) {
		t.Errorf("|VC| = %d, want ν", len(p.VC))
	}
}

func TestPartitionValidateRejectsBadPartitions(t *testing.T) {
	g := graph.Cycle(4)
	tests := []struct {
		name string
		p    Partition
	}{
		{"not a partition", Partition{IS: []int{0}, VC: []int{1, 2}}},
		{"IS not independent", Partition{IS: []int{0, 1}, VC: []int{2, 3}}},
		{"fails expander", Partition{IS: []int{0}, VC: []int{1, 2, 3}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(g); err == nil {
				t.Error("Validate should fail")
			}
		})
	}
}

// TestPartitionWitnessChecksRep: a supplied Rep is checked as a Hall
// witness (each VC vertex has its own IS neighbour), never trusted and
// never silently replaced; a nil Rep still runs the SDR search.
func TestPartitionWitnessChecksRep(t *testing.T) {
	c6 := graph.Cycle(6) // IS {0,2,4}, VC {1,3,5}
	p4 := graph.Path(4)  // IS {0,3}, VC {1,2}: VC holds the edge 1-2
	tests := []struct {
		name string
		g    *graph.Graph
		p    Partition
	}{
		{"non-neighbour", c6, Partition{IS: []int{0, 2, 4}, VC: []int{1, 3, 5}, Rep: map[int]int{1: 4, 3: 2, 5: 0}}},
		{"VC vertex as rep", p4, Partition{IS: []int{0, 3}, VC: []int{1, 2}, Rep: map[int]int{1: 2, 2: 3}}},
		{"out-of-range rep", c6, Partition{IS: []int{0, 2, 4}, VC: []int{1, 3, 5}, Rep: map[int]int{1: 0, 3: 2, 5: 6}}},
		{"repeated IS vertex", c6, Partition{IS: []int{0, 2, 4}, VC: []int{1, 3, 5}, Rep: map[int]int{1: 2, 3: 2, 5: 4}}},
		{"missing VC vertex", c6, Partition{IS: []int{0, 2, 4}, VC: []int{1, 3, 5}, Rep: map[int]int{1: 0, 3: 2}}},
		{"key outside VC", c6, Partition{IS: []int{0, 2, 4}, VC: []int{1, 3, 5}, Rep: map[int]int{1: 0, 3: 2, 0: 4}}},
		{"extra key", c6, Partition{IS: []int{0, 2, 4}, VC: []int{1, 3, 5}, Rep: map[int]int{1: 0, 3: 2, 5: 4, 0: 1}}},
		{"empty non-nil Rep", c6, Partition{IS: []int{0, 2, 4}, VC: []int{1, 3, 5}, Rep: map[int]int{}}},
		{"nil Rep, not an expander", graph.Cycle(4), Partition{IS: []int{0}, VC: []int{1, 2, 3}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if rep, err := tt.p.Witness(tt.g); err == nil {
				t.Errorf("Witness accepted, rep %v", rep)
			}
			if err := tt.p.Validate(tt.g); err == nil {
				t.Error("Validate accepted")
			}
		})
	}

	good := Partition{IS: []int{0, 2, 4}, VC: []int{1, 3, 5}, Rep: map[int]int{1: 2, 3: 4, 5: 0}}
	rep, err := good.Witness(c6)
	if err != nil {
		t.Fatalf("a correct Rep refused: %v", err)
	}
	if len(rep) != 3 || rep[1] != 2 || rep[3] != 4 || rep[5] != 0 {
		t.Errorf("Witness replaced the supplied Rep with %v", rep)
	}

	// Without a Rep, Witness finds one by the SDR search, and what it
	// finds passes as a supplied witness.
	found, err := Partition{IS: good.IS, VC: good.VC}.Witness(c6)
	if err != nil {
		t.Fatalf("nil Rep: %v", err)
	}
	if err := (Partition{IS: good.IS, VC: good.VC, Rep: found}).Validate(c6); err != nil {
		t.Errorf("the SDR %v fails as a witness: %v", found, err)
	}
}

func TestEnumerateMaximalIndependentSets(t *testing.T) {
	// C5 has exactly 5 maximal independent sets (the 5 "diagonal pairs").
	var count int
	err := enumerateMaximalIndependentSets(graph.Cycle(5), func(is []int) bool {
		count++
		if !IsIndependentSet(graph.Cycle(5), is) {
			t.Fatalf("%v not independent", is)
		}
		if len(is) != 2 {
			t.Fatalf("C5 maximal IS %v has size %d", is, len(is))
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("C5 maximal IS count = %d, want 5", count)
	}
	// K4: each singleton is maximal.
	count = 0
	if err := enumerateMaximalIndependentSets(graph.Complete(4), func([]int) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Errorf("K4 maximal IS count = %d, want 4", count)
	}
	// Early stop.
	count = 0
	if err := enumerateMaximalIndependentSets(graph.Complete(4), func([]int) bool { count++; return false }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("early stop visited %d", count)
	}
	// Too large.
	if err := enumerateMaximalIndependentSets(graph.Grid(9, 8), func([]int) bool { return true }); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestEnumerateNEPartitions(t *testing.T) {
	// C6: five maximal independent sets, of which exactly the two
	// alternating triples satisfy the expander condition (the antipodal
	// pairs leave |VC| = 4 > 2).
	g := graph.Cycle(6)
	var found [][]int
	if err := EnumerateNEPartitions(g, func(p Partition) bool {
		if err := p.Validate(g); err != nil {
			t.Fatalf("visited invalid partition: %v", err)
		}
		found = append(found, p.IS)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(found) != 2 {
		t.Fatalf("C6 partitions = %d (%v), want 2", len(found), found)
	}
	// Non-admitting graph: zero visits.
	count, err := CountNEPartitions(graph.Complete(5))
	if err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Errorf("K5 partitions = %d, want 0", count)
	}
	// Early stop.
	visits := 0
	if err := EnumerateNEPartitions(g, func(Partition) bool { visits++; return false }); err != nil {
		t.Fatal(err)
	}
	if visits != 1 {
		t.Errorf("early stop visited %d", visits)
	}
	// Size limit propagates.
	if _, err := CountNEPartitions(graph.Grid(9, 8)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestCountNEPartitionsAgreesWithExact(t *testing.T) {
	// Positive count iff FindNEPartition succeeds, over a small zoo.
	zoo := []*graph.Graph{
		graph.Path(5), graph.Cycle(5), graph.Cycle(6), graph.Star(6),
		graph.Complete(4), graph.Petersen(), graph.Grid(2, 3),
	}
	for i, g := range zoo {
		count, err := CountNEPartitions(g)
		if err != nil {
			t.Fatalf("zoo[%d]: %v", i, err)
		}
		_, findErr := FindNEPartition(g)
		if (count > 0) != (findErr == nil) {
			t.Errorf("zoo[%d]: count=%d but FindNEPartition err=%v", i, count, findErr)
		}
	}
}

// bruteForceMaximalIS enumerates maximal independent sets by checking all
// subsets — oracle for Bron–Kerbosch.
func bruteForceMaximalISCount(g *graph.Graph) int {
	n := g.NumVertices()
	count := 0
	for mask := 0; mask < 1<<uint(n); mask++ {
		var set []int
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) != 0 {
				set = append(set, v)
			}
		}
		if !IsIndependentSet(g, set) {
			continue
		}
		// Maximal: no vertex outside can be added.
		maximal := true
		member := make(map[int]bool)
		for _, v := range set {
			member[v] = true
		}
		for v := 0; v < n && maximal; v++ {
			if member[v] {
				continue
			}
			ok := true
			for _, u := range g.Neighbors(v) {
				if member[u] {
					ok = false
				}
			}
			if ok {
				maximal = false
			}
		}
		if maximal {
			count++
		}
	}
	return count
}

// Property: Bron–Kerbosch counts match subset enumeration.
func TestPropertyMaximalISCount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(9)
		g := graph.RandomGNP(n, 0.4, seed)
		var fast int
		if err := enumerateMaximalIndependentSets(g, func([]int) bool { fast++; return true }); err != nil {
			return false
		}
		return fast == bruteForceMaximalISCount(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: FindNEPartition agrees with the exact enumeration on random
// connected graphs.
func TestPropertyPartitionSearchConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		checkAgainstEnumeration(t, graph.RandomConnected(3+rng.Intn(10), 0.3, seed))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
