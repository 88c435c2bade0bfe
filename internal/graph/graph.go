// Package graph implements the undirected-graph substrate used throughout the
// library: a compact adjacency representation, structural queries
// (connectivity, bipartiteness, degrees), generators for the graph families
// the experiments run on, and a plain-text edge-list exchange format.
//
// Graphs are simple (no self-loops, no parallel edges) and undirected, which
// is exactly the class of instances the Tuple model of Gelastou et al.
// (ICDCS 2006) is defined on. Vertices are integers 0..n-1; edges are
// normalized so that U < V.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Sentinel errors returned by graph constructors and mutators.
var (
	// ErrVertexRange is returned when a vertex index is outside [0, n).
	ErrVertexRange = errors.New("graph: vertex index out of range")
	// ErrSelfLoop is returned when an edge would connect a vertex to itself.
	ErrSelfLoop = errors.New("graph: self-loops are not allowed")
	// ErrDuplicateEdge is returned when an edge is inserted twice.
	ErrDuplicateEdge = errors.New("graph: duplicate edge")
	// ErrNotBipartite is returned by operations that require a bipartition.
	ErrNotBipartite = errors.New("graph: graph is not bipartite")
)

// Edge is an undirected edge. Edges constructed through this package are
// normalized so that U < V; use NewEdge to normalize arbitrary endpoints.
type Edge struct {
	// U is the smaller endpoint.
	U int
	// V is the larger endpoint.
	V int
}

// NewEdge returns the normalized edge {u, v} with the smaller endpoint first.
// O(1), does not allocate.
func NewEdge(u, v int) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// Has reports whether w is an endpoint of e. O(1), does not allocate.
func (e Edge) Has(w int) bool { return e.U == w || e.V == w }

// String renders the edge as "(u,v)". Allocates the string.
func (e Edge) String() string { return fmt.Sprintf("(%d,%d)", e.U, e.V) }

// Graph is a simple undirected graph on vertices 0..n-1.
//
// The zero value is an empty graph with no vertices; use New to create a
// graph with a fixed vertex count. Graph is not safe for concurrent
// mutation; concurrent reads are safe.
type Graph struct {
	n         int
	adj       [][]int      // adjacency lists, each sorted ascending
	edges     []Edge       // edge list in insertion order, normalized
	edgeIndex map[Edge]int // normalized edge -> index into edges
}

// New returns an empty graph on n vertices (n >= 0). O(n); allocates the
// adjacency skeleton and the edge-index map.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{
		n:         n,
		adj:       make([][]int, n),
		edgeIndex: make(map[Edge]int),
	}
}

// NumVertices returns the number of vertices n. O(1), does not allocate.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of edges m. O(1), does not allocate.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddEdge inserts the undirected edge {u, v}.
// It returns ErrVertexRange, ErrSelfLoop or ErrDuplicateEdge on invalid input.
// O(d) per insertion (sorted adjacency shift) plus amortized append and
// map-store allocations.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("%w: (%d,%d) with n=%d", ErrVertexRange, u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("%w: vertex %d", ErrSelfLoop, u)
	}
	e := NewEdge(u, v)
	if _, dup := g.edgeIndex[e]; dup {
		return fmt.Errorf("%w: %v", ErrDuplicateEdge, e)
	}
	g.edgeIndex[e] = len(g.edges)
	g.edges = append(g.edges, e)
	g.adj[u] = insertSorted(g.adj[u], v)
	g.adj[v] = insertSorted(g.adj[v], u)
	return nil
}

// mustAddEdge inserts {u, v} for construction code whose arithmetic makes
// range, self-loop, and duplicate errors impossible (generators emitting
// distinct in-range pairs, rebuilds iterating an existing edge set). A panic
// here means the construction itself is broken, never the caller's input.
func (g *Graph) mustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		// lint:invariant(nakedpanic): callers enumerate distinct in-range pairs; a failure is a bug in this package
		panic(fmt.Sprintf("graph: internal construction: %v", err))
	}
}

// insertSorted inserts x into the ascending slice s, keeping it sorted.
func insertSorted(s []int, x int) []int {
	i := sort.SearchInts(s, x)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

// HasEdge reports whether {u, v} is an edge of g. O(1) expected (map
// lookup), does not allocate.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return false
	}
	_, ok := g.edgeIndex[NewEdge(u, v)]
	return ok
}

// EdgeID returns the index of edge e in the edge list, or -1 if absent.
// Edge indices are stable identifiers used by tuples of the Tuple model.
// O(1) expected, does not allocate.
func (g *Graph) EdgeID(e Edge) int {
	id, ok := g.edgeIndex[NewEdge(e.U, e.V)]
	if !ok {
		return -1
	}
	return id
}

// EdgeByID returns the edge with the given index.
// It panics if id is out of range, mirroring slice indexing semantics.
// O(1), does not allocate.
func (g *Graph) EdgeByID(id int) Edge { return g.edges[id] }

// Edges returns a copy of the edge list in insertion order. O(m);
// allocates the copy.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Neighbors returns the sorted adjacency list of v, or nil if v is out
// of range. The slice is g's own storage, shared and read-only: callers
// must not write to it, and an AddEdge at v may shift its contents. Its
// capacity is capped at its length, so an append copies instead of
// clobbering the graph. O(1), does not allocate.
func (g *Graph) Neighbors(v int) []int {
	if v < 0 || v >= g.n {
		return nil
	}
	return g.adj[v][:len(g.adj[v]):len(g.adj[v])]
}

// Degree returns the degree of v, or 0 if v is out of range.
// O(1), does not allocate.
func (g *Graph) Degree(v int) int {
	if v < 0 || v >= g.n {
		return 0
	}
	return len(g.adj[v])
}

// MinDegree returns the minimum vertex degree (0 for the empty graph).
// O(n), does not allocate.
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	min := len(g.adj[0])
	for _, a := range g.adj[1:] {
		if len(a) < min {
			min = len(a)
		}
	}
	return min
}

// MaxDegree returns the maximum vertex degree (0 for the empty graph).
// O(n), does not allocate.
func (g *Graph) MaxDegree() int {
	max := 0
	for _, a := range g.adj {
		if len(a) > max {
			max = len(a)
		}
	}
	return max
}

// HasIsolatedVertex reports whether some vertex has degree 0. The Tuple
// model is defined on graphs without isolated vertices (an isolated vertex
// can never be covered by an edge). O(n), does not allocate.
func (g *Graph) HasIsolatedVertex() bool {
	for _, a := range g.adj {
		if len(a) == 0 {
			return true
		}
	}
	return false
}

// IsConnected reports whether g is connected. The empty graph and the
// single-vertex graph are considered connected. O(n + m); allocates BFS
// scratch.
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	return len(g.componentOf(0)) == g.n
}

// componentOf returns the vertices reachable from start via BFS.
func (g *Graph) componentOf(start int) []int {
	visited := make([]bool, g.n)
	queue := []int{start}
	visited[start] = true
	var order []int
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, u := range g.adj[v] {
			if !visited[u] {
				visited[u] = true
				queue = append(queue, u)
			}
		}
	}
	return order
}

// Bipartition attempts to 2-color g. On success it returns side[v] in {0,1}
// for every vertex. Isolated vertices are assigned side 0. If g contains an
// odd cycle it returns ErrNotBipartite. O(n + m); allocates the side
// array and BFS queue. CSR counterpart: (*CSR).Bipartition.
func (g *Graph) Bipartition() ([]int, error) {
	side := make([]int, g.n)
	for i := range side {
		side[i] = -1
	}
	for s := 0; s < g.n; s++ {
		if side[s] != -1 {
			continue
		}
		side[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.adj[v] {
				if side[u] == -1 {
					side[u] = 1 - side[v]
					queue = append(queue, u)
				} else if side[u] == side[v] {
					return nil, fmt.Errorf("%w: odd cycle through edge (%d,%d)", ErrNotBipartite, v, u)
				}
			}
		}
	}
	return side, nil
}

// IsBipartite reports whether g has no odd cycle. O(n + m); allocates
// Bipartition's scratch.
func (g *Graph) IsBipartite() bool {
	_, err := g.Bipartition()
	return err == nil
}

// IsRegular reports whether every vertex has the same degree, returning that
// degree. The empty graph is 0-regular. O(n), does not allocate.
func (g *Graph) IsRegular() (bool, int) {
	if g.n == 0 {
		return true, 0
	}
	d := len(g.adj[0])
	for _, a := range g.adj[1:] {
		if len(a) != d {
			return false, 0
		}
	}
	return true, d
}

// String renders a short human-readable summary. Allocates the string.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.n, len(g.edges))
}
