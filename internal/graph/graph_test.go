package graph

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewEdgeNormalizes(t *testing.T) {
	tests := []struct {
		u, v int
		want Edge
	}{
		{1, 2, Edge{1, 2}},
		{2, 1, Edge{1, 2}},
		{0, 0, Edge{0, 0}},
		{7, 3, Edge{3, 7}},
	}
	for _, tt := range tests {
		if got := NewEdge(tt.u, tt.v); got != tt.want {
			t.Errorf("NewEdge(%d,%d) = %v, want %v", tt.u, tt.v, got, tt.want)
		}
	}
}

func TestEdgeOther(t *testing.T) {
	e := NewEdge(3, 5)
	if got := e.Other(3); got != 5 {
		t.Errorf("Other(3) = %d, want 5", got)
	}
	if got := e.Other(5); got != 3 {
		t.Errorf("Other(5) = %d, want 3", got)
	}
	if got := e.Other(7); got != -1 {
		t.Errorf("Other(7) = %d, want -1", got)
	}
}

func TestEdgeHas(t *testing.T) {
	e := NewEdge(2, 9)
	if !e.Has(2) || !e.Has(9) {
		t.Error("Has should report both endpoints")
	}
	if e.Has(5) {
		t.Error("Has(5) should be false")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	tests := []struct {
		name    string
		u, v    int
		wantErr error
	}{
		{"out of range high", 0, 3, ErrVertexRange},
		{"out of range negative", -1, 1, ErrVertexRange},
		{"self loop", 1, 1, ErrSelfLoop},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := g.AddEdge(tt.u, tt.v); !errors.Is(err, tt.wantErr) {
				t.Errorf("AddEdge(%d,%d) = %v, want %v", tt.u, tt.v, err, tt.wantErr)
			}
		})
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatalf("AddEdge(0,1) failed: %v", err)
	}
	if err := g.AddEdge(1, 0); !errors.Is(err, ErrDuplicateEdge) {
		t.Errorf("duplicate AddEdge(1,0) = %v, want ErrDuplicateEdge", err)
	}
}

func TestAddEdgeAndQueries(t *testing.T) {
	g := New(4)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 2, 1)
	mustAdd(t, g, 3, 0)

	if g.NumVertices() != 4 {
		t.Errorf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3", g.NumEdges())
	}
	if !g.HasEdge(1, 0) || !g.HasEdge(1, 2) || !g.HasEdge(0, 3) {
		t.Error("HasEdge should be orientation-insensitive")
	}
	if g.HasEdge(2, 3) {
		t.Error("HasEdge(2,3) should be false")
	}
	if g.HasEdge(0, 0) || g.HasEdge(-1, 2) || g.HasEdge(0, 9) {
		t.Error("HasEdge must reject invalid pairs")
	}
	if got := g.Neighbors(1); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("Neighbors(1) = %v, want [0 2]", got)
	}
	if got := g.Degree(1); got != 2 {
		t.Errorf("Degree(1) = %d, want 2", got)
	}
	if got := g.Degree(-1); got != 0 {
		t.Errorf("Degree(-1) = %d, want 0", got)
	}
}

func TestEdgeIDRoundTrip(t *testing.T) {
	g := Cycle(5)
	for i := 0; i < g.NumEdges(); i++ {
		e := g.EdgeByID(i)
		if got := g.EdgeID(e); got != i {
			t.Errorf("EdgeID(EdgeByID(%d)) = %d", i, got)
		}
	}
	if got := g.EdgeID(NewEdge(0, 2)); got != -1 {
		t.Errorf("EdgeID of absent edge = %d, want -1", got)
	}
}

// TestNeighborsSharesAdjacency: Neighbors hands out the adjacency
// without copying it, and an append to the view cannot reach the graph.
func TestNeighborsSharesAdjacency(t *testing.T) {
	g := RandomGNP(20, 0.3, 42)
	if allocs := testing.AllocsPerRun(10, func() { _ = g.Neighbors(3) }); allocs != 0 {
		t.Errorf("Neighbors allocates %.0f times, want 0", allocs)
	}
	for v := 0; v < g.NumVertices(); v++ {
		before := slices.Clone(g.Neighbors(v))
		_ = append(g.Neighbors(v), -1)
		if got := g.Neighbors(v); !slices.Equal(got, before) {
			t.Fatalf("an append to Neighbors(%d) changed the graph: %v, was %v", v, got, before)
		}
		if !slices.IsSorted(before) {
			t.Fatalf("Neighbors(%d) = %v, not sorted", v, before)
		}
	}
	if g.Neighbors(-1) != nil || g.Neighbors(g.NumVertices()) != nil {
		t.Error("Neighbors of an out-of-range vertex is not nil")
	}
}

func TestDegreeBounds(t *testing.T) {
	g := Star(5)
	if got := g.MaxDegree(); got != 4 {
		t.Errorf("MaxDegree = %d, want 4", got)
	}
	if got := g.MinDegree(); got != 1 {
		t.Errorf("MinDegree = %d, want 1", got)
	}
	empty := New(0)
	if empty.MinDegree() != 0 || empty.MaxDegree() != 0 {
		t.Error("empty graph degrees should be 0")
	}
}

func TestHasIsolatedVertex(t *testing.T) {
	g := New(3)
	mustAdd(t, g, 0, 1)
	if !g.HasIsolatedVertex() {
		t.Error("vertex 2 is isolated")
	}
	mustAdd(t, g, 1, 2)
	if g.HasIsolatedVertex() {
		t.Error("no vertex is isolated now")
	}
}

func TestIncidentEdges(t *testing.T) {
	g := Star(4)
	got := g.IncidentEdges(0)
	want := []Edge{{0, 1}, {0, 2}, {0, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("IncidentEdges(0) = %v, want %v", got, want)
	}
	if got := g.IncidentEdges(9); got != nil {
		t.Errorf("IncidentEdges(9) = %v, want nil", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := Cycle(4)
	c := g.Clone()
	mustAdd(t, c, 0, 2)
	if g.HasEdge(0, 2) {
		t.Error("mutating the clone must not affect the original")
	}
	if c.NumEdges() != g.NumEdges()+1 {
		t.Errorf("clone edges = %d, want %d", c.NumEdges(), g.NumEdges()+1)
	}
}

func TestNeighborhoodOf(t *testing.T) {
	g := Path(5) // 0-1-2-3-4
	tests := []struct {
		set  []int
		want []int
	}{
		{[]int{0}, []int{1}},
		{[]int{2}, []int{1, 3}},
		{[]int{0, 4}, []int{1, 3}},
		{[]int{1, 2}, []int{0, 1, 2, 3}}, // includes members adjacent to each other
		{nil, nil},
		{[]int{99}, nil}, // out of range ignored
	}
	for _, tt := range tests {
		if got := g.NeighborhoodOf(tt.set); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("NeighborhoodOf(%v) = %v, want %v", tt.set, got, tt.want)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Complete(5)
	sub, mapping := g.InducedSubgraph([]int{1, 3, 4, 3}) // duplicate ignored
	if sub.NumVertices() != 3 {
		t.Fatalf("induced vertices = %d, want 3", sub.NumVertices())
	}
	if sub.NumEdges() != 3 {
		t.Errorf("induced edges = %d, want 3 (triangle)", sub.NumEdges())
	}
	if !reflect.DeepEqual(mapping, []int{1, 3, 4}) {
		t.Errorf("mapping = %v, want [1 3 4]", mapping)
	}
}

func TestSubgraphOfEdges(t *testing.T) {
	g := Cycle(6)
	edges := []Edge{NewEdge(0, 1), NewEdge(2, 3)}
	sub, vs := g.SubgraphOfEdges(edges)
	if !reflect.DeepEqual(vs, []int{0, 1, 2, 3}) {
		t.Errorf("V(T) = %v, want [0 1 2 3]", vs)
	}
	if sub.NumEdges() != 2 {
		t.Errorf("E(T) = %d, want 2", sub.NumEdges())
	}
	// Edges not in g are skipped.
	sub2, vs2 := g.SubgraphOfEdges([]Edge{NewEdge(0, 3)})
	if sub2.NumEdges() != 0 || len(vs2) != 0 {
		t.Errorf("foreign edge should be skipped, got %d edges, %v vertices", sub2.NumEdges(), vs2)
	}
}

func TestIsConnected(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want bool
	}{
		{"empty", New(0), true},
		{"singleton", New(1), true},
		{"two isolated", New(2), false},
		{"path", Path(6), true},
		{"cycle", Cycle(5), true},
		{"disjoint edges", PerfectMatchingGraph(4), false},
		{"complete", Complete(7), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.IsConnected(); got != tt.want {
				t.Errorf("IsConnected = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestConnectedComponents(t *testing.T) {
	g := PerfectMatchingGraph(6)
	comps := g.ConnectedComponents()
	want := [][]int{{0, 1}, {2, 3}, {4, 5}}
	if !reflect.DeepEqual(comps, want) {
		t.Errorf("components = %v, want %v", comps, want)
	}
}

func TestBipartition(t *testing.T) {
	tests := []struct {
		name      string
		g         *Graph
		bipartite bool
	}{
		{"path", Path(5), true},
		{"even cycle", Cycle(6), true},
		{"odd cycle", Cycle(5), false},
		{"complete bipartite", CompleteBipartite(3, 4), true},
		{"triangle", Complete(3), false},
		{"grid", Grid(3, 4), true},
		{"hypercube", Hypercube(4), true},
		{"star", Star(8), true},
		{"petersen", Petersen(), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			side, err := tt.g.Bipartition()
			if tt.bipartite {
				if err != nil {
					t.Fatalf("Bipartition: %v", err)
				}
				for _, e := range tt.g.Edges() {
					if side[e.U] == side[e.V] {
						t.Fatalf("edge %v monochromatic", e)
					}
				}
			} else if !errors.Is(err, ErrNotBipartite) {
				t.Fatalf("err = %v, want ErrNotBipartite", err)
			}
			if got := tt.g.IsBipartite(); got != tt.bipartite {
				t.Errorf("IsBipartite = %v, want %v", got, tt.bipartite)
			}
		})
	}
}

func TestIsRegular(t *testing.T) {
	tests := []struct {
		name   string
		g      *Graph
		want   bool
		degree int
	}{
		{"cycle", Cycle(7), true, 2},
		{"complete", Complete(5), true, 4},
		{"petersen", Petersen(), true, 3},
		{"path", Path(4), false, 0},
		{"empty", New(0), true, 0},
		{"hypercube", Hypercube(3), true, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ok, d := tt.g.IsRegular()
			if ok != tt.want || (ok && d != tt.degree) {
				t.Errorf("IsRegular = (%v,%d), want (%v,%d)", ok, d, tt.want, tt.degree)
			}
		})
	}
}

func TestStringRendering(t *testing.T) {
	g := Cycle(3)
	if got := g.String(); got != "graph{n=3 m=3}" {
		t.Errorf("String = %q", got)
	}
	if got := NewEdge(2, 1).String(); got != "(1,2)" {
		t.Errorf("Edge.String = %q", got)
	}
}

// Property: handshake lemma — the degree sum is twice the edge count.
func TestPropertyHandshake(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomGNP(2+rng.Intn(30), rng.Float64(), seed)
		sum := 0
		for v := 0; v < g.NumVertices(); v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: adjacency lists stay sorted and symmetric under random insertion.
func TestPropertyAdjacencySortedSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := New(n)
		for i := 0; i < 3*n; i++ {
			_ = g.AddEdge(rng.Intn(n), rng.Intn(n)) // errors fine
		}
		for v := 0; v < n; v++ {
			nbrs := g.Neighbors(v)
			for i := 1; i < len(nbrs); i++ {
				if nbrs[i-1] >= nbrs[i] {
					return false
				}
			}
			for _, u := range nbrs {
				if !g.HasEdge(u, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: components partition the vertex set.
func TestPropertyComponentsPartition(t *testing.T) {
	f := func(seed int64) bool {
		g := RandomGNP(1+int(seed%25+25)%25, 0.1, seed)
		seen := make(map[int]bool)
		total := 0
		for _, comp := range g.ConnectedComponents() {
			for _, v := range comp {
				if seen[v] {
					return false
				}
				seen[v] = true
				total++
			}
		}
		return total == g.NumVertices()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mustAdd(t *testing.T, g *Graph, u, v int) {
	t.Helper()
	if err := g.AddEdge(u, v); err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
	}
}

// Other returns the endpoint of e different from w.
// It returns -1 if w is not an endpoint of e. O(1), does not allocate.
func (e Edge) Other(w int) int {
	switch w {
	case e.U:
		return e.V
	case e.V:
		return e.U
	default:
		return -1
	}
}

// IncidentEdges returns the edges incident to v, in ascending neighbor order.
// O(d); allocates the edge slice.
func (g *Graph) IncidentEdges(v int) []Edge {
	if v < 0 || v >= g.n {
		return nil
	}
	out := make([]Edge, 0, len(g.adj[v]))
	for _, u := range g.adj[v] {
		out = append(out, NewEdge(v, u))
	}
	return out
}

// Clone returns a deep copy of g. O(n + m log m) (sorted adjacency
// rebuild); allocates the copy.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for _, e := range g.edges {
		// AddEdge cannot fail when replaying a valid edge list.
		c.mustAddEdge(e.U, e.V)
	}
	return c
}

// NeighborhoodOf returns Neigh_G(X): the set of all vertices adjacent to at
// least one vertex of set (which may intersect set itself), as a sorted slice.
// O(Σ d(v) + out log out); allocates the seen map and the result.
func (g *Graph) NeighborhoodOf(set []int) []int {
	seen := make(map[int]bool)
	for _, v := range set {
		if v < 0 || v >= g.n {
			continue
		}
		for _, u := range g.adj[v] {
			seen[u] = true
		}
	}
	if len(seen) == 0 {
		return nil
	}
	out := make([]int, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// InducedSubgraph returns the subgraph induced by the given vertex set,
// together with the mapping from new vertex indices to original ones.
// O(m + |vertices| log |vertices|); allocates the subgraph and mapping.
func (g *Graph) InducedSubgraph(vertices []int) (*Graph, []int) {
	keep := make([]int, 0, len(vertices))
	seen := make(map[int]bool, len(vertices))
	for _, v := range vertices {
		if v >= 0 && v < g.n && !seen[v] {
			seen[v] = true
			keep = append(keep, v)
		}
	}
	sort.Ints(keep)
	index := make(map[int]int, len(keep))
	for i, v := range keep {
		index[v] = i
	}
	sub := New(len(keep))
	for _, e := range g.edges {
		iu, okU := index[e.U]
		iv, okV := index[e.V]
		if okU && okV {
			sub.mustAddEdge(iu, iv)
		}
	}
	return sub, keep
}

// SubgraphOfEdges returns the graph G_T obtained from an edge set T: its
// vertex set is V(T) and its edge set is T (Section 2 of the paper). The
// returned graph keeps the original vertex numbering of g (vertices not
// touched by T are present but isolated in the returned graph only if their
// index is below the maximum touched index; use the second return value for
// the exact vertex set V(T)). O(n + |edges| log |edges|); allocates the
// subgraph and the sorted vertex set.
func (g *Graph) SubgraphOfEdges(edges []Edge) (*Graph, []int) {
	sub := New(g.n)
	touched := make(map[int]bool)
	for _, e := range edges {
		if g.EdgeID(e) < 0 {
			continue
		}
		if !sub.HasEdge(e.U, e.V) {
			sub.mustAddEdge(e.U, e.V)
		}
		touched[e.U] = true
		touched[e.V] = true
	}
	vs := make([]int, 0, len(touched))
	for v := range touched {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return sub, vs
}

// ConnectedComponents returns the vertex sets of the connected components,
// each sorted ascending, ordered by smallest contained vertex.
// O(n log n + m); allocates the component slices and BFS scratch.
func (g *Graph) ConnectedComponents() [][]int {
	visited := make([]bool, g.n)
	var comps [][]int
	for v := 0; v < g.n; v++ {
		if visited[v] {
			continue
		}
		comp := g.componentOf(v)
		for _, u := range comp {
			visited[u] = true
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}
