package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/defender-game/defender/internal/obs"
	"github.com/defender-game/defender/internal/par"
)

// CSR construction counter (catalogued in OBSERVABILITY.md): one increment
// per compressed-sparse-row build, whichever constructor ran. Compared
// against solver throughput it shows whether large-instance runs are
// rebuilding their graphs instead of reusing them.
var obsCSRBuilds = obs.Default().Counter("graph.csr.builds")

// CSR bipartition counter (catalogued in OBSERVABILITY.md): one increment
// per BFS 2-coloring computed on a CSR graph — the routing decision every
// sparse solve starts with (see SCALING.md "Routing"). The coloring is
// memoized, so this counts colorings, not Bipartition calls: at most one
// per CSR.
var obsCSRBipartitions = obs.Default().Counter("graph.csr.bipartitions")

// CSR is a compressed-sparse-row representation of a simple undirected
// graph on vertices 0..n-1: the neighbors of v are
// Col[RowPtr[v]:RowPtr[v+1]], sorted ascending, and every undirected edge
// {u, v} appears twice (u in v's row and v in u's row). It is the
// million-vertex substrate of the solver stack: two flat int32 slices,
// ~8 bytes per directed arc plus 4 bytes per vertex, cache-linear
// iteration, and no per-vertex allocations (compare Graph's per-vertex
// adjacency slices and edge-index map).
//
// A CSR is immutable after construction; all methods are safe for
// concurrent use. Int32 indices cap instances at 2^31-1 vertices and
// directed arcs — two orders of magnitude above the 10^6-vertex target —
// and halve the memory footprint against int64 indexing.
//
// Because the rows never change, a CSR also carries the bipartite
// structure derived from them, computed at most once: its 2-coloring and
// the maximum matching across it (5 bytes per vertex for the CSR's
// lifetime). Every entry point hands out copies. The memo holds sync
// state, so a CSR is shared by pointer and never copied by value.
type CSR struct {
	// RowPtr has length n+1; RowPtr[0] = 0 and RowPtr[n] = len(Col).
	RowPtr []int32
	// Col holds the concatenated adjacency rows, each sorted ascending.
	Col []int32

	bip bipartiteMemo
}

// bipartiteMemo is a CSR's derived bipartite structure. Each slot is
// filled once under its sync.Once and read-only afterwards; colored is
// set only after the coloring slot is filled, so IsMemoizedBipartition
// can look without computing or blocking.
type bipartiteMemo struct {
	colorOnce sync.Once
	colored   atomic.Bool
	side      []int8
	err       error

	matchOnce sync.Once
	mate      []int32
}

// NumVertices returns the number of vertices n. O(1), does not allocate.
func (c *CSR) NumVertices() int { return len(c.RowPtr) - 1 }

// NumEdges returns the number of undirected edges m = len(Col)/2.
// O(1), does not allocate.
func (c *CSR) NumEdges() int { return len(c.Col) / 2 }

// Degree returns the degree of v, or 0 if v is out of range.
// O(1), does not allocate.
func (c *CSR) Degree(v int) int {
	if v < 0 || v >= c.NumVertices() {
		return 0
	}
	return int(c.RowPtr[v+1] - c.RowPtr[v])
}

// Neighbors returns the ascending neighbor row of v as a subslice of Col —
// the allocation-free iteration primitive of the sparse core. The caller
// must not modify the returned slice. O(1), does not allocate; returns nil
// for out-of-range v.
func (c *CSR) Neighbors(v int) []int32 {
	if v < 0 || v >= c.NumVertices() {
		return nil
	}
	return c.Col[c.RowPtr[v]:c.RowPtr[v+1]]
}

// HasEdge reports whether {u, v} is an edge, by binary search in the
// shorter of the two rows. O(log min(deg u, deg v)), does not allocate.
func (c *CSR) HasEdge(u, v int) bool {
	n := c.NumVertices()
	if u < 0 || u >= n || v < 0 || v >= n || u == v {
		return false
	}
	if c.Degree(v) < c.Degree(u) {
		u, v = v, u
	}
	row := c.Neighbors(u)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= int32(v) })
	return i < len(row) && row[i] == int32(v)
}

// HasIsolatedVertex reports whether some vertex has degree 0 (the Tuple
// model is undefined then). O(n), does not allocate.
func (c *CSR) HasIsolatedVertex() bool {
	for v, n := 0, c.NumVertices(); v < n; v++ {
		if c.RowPtr[v+1] == c.RowPtr[v] {
			return true
		}
	}
	return false
}

// MaxDegree returns the maximum vertex degree (0 for the empty graph).
// O(n), does not allocate.
func (c *CSR) MaxDegree() int {
	max := 0
	for v, n := 0, c.NumVertices(); v < n; v++ {
		if d := c.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// EachEdge calls fn once per undirected edge with u < v, in ascending
// (u, v) order. O(n + m), does not allocate.
func (c *CSR) EachEdge(fn func(u, v int32)) {
	for u, n := 0, c.NumVertices(); u < n; u++ {
		for _, v := range c.Neighbors(u) {
			if int32(u) < v {
				fn(int32(u), v)
			}
		}
	}
}

// Validate checks the structural invariants every constructor guarantees:
// RowPtr monotone and anchored at 0 and len(Col), rows sorted strictly
// ascending (no parallel edges), no self-loops, in-range columns, and
// symmetry (u lists v iff v lists u). O(n + m log Δ) where Δ is the
// maximum degree; allocates nothing. Intended for fuzzers and for callers
// assembling RowPtr/Col by hand.
func (c *CSR) Validate() error {
	n := c.NumVertices()
	if len(c.RowPtr) == 0 {
		return fmt.Errorf("graph: csr: empty RowPtr")
	}
	if c.RowPtr[0] != 0 || int(c.RowPtr[n]) != len(c.Col) {
		return fmt.Errorf("graph: csr: RowPtr not anchored: first=%d last=%d len(Col)=%d", c.RowPtr[0], c.RowPtr[n], len(c.Col))
	}
	for v := 0; v < n; v++ {
		if c.RowPtr[v+1] < c.RowPtr[v] {
			return fmt.Errorf("graph: csr: RowPtr decreases at vertex %d", v)
		}
		row := c.Neighbors(v)
		for i, u := range row {
			if u < 0 || int(u) >= n {
				return fmt.Errorf("%w: csr row %d lists %d with n=%d", ErrVertexRange, v, u, n)
			}
			if int(u) == v {
				return fmt.Errorf("%w: csr row %d", ErrSelfLoop, v)
			}
			if i > 0 && row[i-1] >= u {
				return fmt.Errorf("%w: csr row %d not strictly ascending at offset %d", ErrDuplicateEdge, v, i)
			}
			if !c.HasEdge(int(u), v) {
				return fmt.Errorf("graph: csr: asymmetric edge (%d,%d)", v, u)
			}
		}
	}
	return nil
}

// FromGraph converts an adjacency-list Graph into its CSR form. The
// neighbor rows are copied in Graph's already-sorted order, so the result
// is canonical: FromGraph(g).ToGraph() has exactly g's edge set (edge
// insertion order is not preserved — CSR carries no edge list). O(n + m);
// allocates the two CSR slices and nothing else.
func FromGraph(g *Graph) *CSR {
	obsCSRBuilds.Inc()
	n := g.NumVertices()
	c := &CSR{
		RowPtr: make([]int32, n+1),
		Col:    make([]int32, 0, 2*g.NumEdges()),
	}
	for v := 0; v < n; v++ {
		for _, u := range g.adj[v] {
			c.Col = append(c.Col, int32(u))
		}
		c.RowPtr[v+1] = int32(len(c.Col))
	}
	return c
}

// BuildCSR assembles a CSR from a raw undirected edge list given as
// parallel endpoint slices. It rejects out-of-range endpoints, self-loops
// and duplicate edges (in either orientation) with the package's sentinel
// errors. Construction is a counting sort over the endpoint pair followed
// by a per-row sort: O(n + m log Δ) time, allocating only the CSR slices.
// This is the bulk-load path the large-graph generators use — no
// per-edge map insertions, no per-vertex slices.
//
// The load is serial at every thread budget: on a 10^6-vertex instance
// it measured faster than a multicore scatter even at two workers
// (SCALING.md "Parallel scaling").
func BuildCSR(n int, us, vs []int32) (*CSR, error) {
	if n < 0 {
		n = 0
	}
	if len(us) != len(vs) {
		return nil, fmt.Errorf("graph: csr: endpoint slices disagree: %d vs %d", len(us), len(vs))
	}
	obsCSRBuilds.Inc()
	c := &CSR{
		RowPtr: make([]int32, n+1),
		Col:    make([]int32, 2*len(us)),
	}
	for i := range us {
		u, v := us[i], vs[i]
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			return nil, fmt.Errorf("%w: (%d,%d) with n=%d", ErrVertexRange, u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("%w: vertex %d", ErrSelfLoop, u)
		}
		c.RowPtr[u+1]++
		c.RowPtr[v+1]++
	}
	for v := 0; v < n; v++ {
		c.RowPtr[v+1] += c.RowPtr[v]
	}
	// fill uses RowPtr as a moving write cursor, then the cursors are
	// rewound by one row at the end (cursor[v] ends exactly at RowPtr[v+1]).
	cursor := par.GetInt32(n)
	copy(cursor, c.RowPtr[:n])
	for i := range us {
		u, v := us[i], vs[i]
		c.Col[cursor[u]] = v
		cursor[u]++
		c.Col[cursor[v]] = u
		cursor[v]++
	}
	par.PutInt32(cursor)
	for v := 0; v < n; v++ {
		row := c.Col[c.RowPtr[v]:c.RowPtr[v+1]]
		slices.Sort(row)
		for i := 1; i < len(row); i++ {
			if row[i-1] == row[i] {
				return nil, fmt.Errorf("%w: (%d,%d)", ErrDuplicateEdge, v, row[i])
			}
		}
	}
	return c, nil
}

// ToGraph expands the CSR back into an adjacency-list Graph, inserting
// edges in ascending (u, v) order. The round-trip ToGraph(FromGraph(g))
// preserves g's edge set exactly (property-tested), though not its edge
// insertion order. O(n + m) plus the edge-index map fills — intended for
// the small-graph interop path (exact verifiers, graph6 encoding), not
// for 10^6-vertex instances, where the map alone would dominate memory.
// Allocates the full Graph.
func (c *CSR) ToGraph() *Graph {
	g := New(c.NumVertices())
	c.EachEdge(func(u, v int32) { g.mustAddEdge(int(u), int(v)) })
	return g
}

// Bipartition 2-colors the CSR graph by BFS: side[v] is 0 or 1 with every
// edge crossing sides, isolated vertices on side 0. It returns
// ErrNotBipartite on an odd cycle. This is the routing check of the
// sparse core: bipartite instances take the guaranteed König route,
// everything else the heuristic route (see SCALING.md). The coloring (or
// the error) is computed on the first call and memoized; every call
// returns its own copy of side, so mutating it cannot reach the memo.
// O(n + m) once, then O(n) per call for the copy. Serial at every thread
// budget, like BuildCSR (SCALING.md "Parallel scaling").
func (c *CSR) Bipartition() ([]int8, error) {
	side, err := c.bipartition()
	if err != nil {
		return nil, err
	}
	return slices.Clone(side), nil
}

// IsBipartite reports whether the CSR graph has no odd cycle.
// O(n + m) on the first coloring, O(1) after; copies nothing.
func (c *CSR) IsBipartite() bool {
	_, err := c.bipartition()
	return err == nil
}

// IsMemoizedBipartition reports whether c's 2-coloring is already
// memoized and side equals it byte for byte. It never computes the
// coloring and never blocks on one being computed. O(n), does not
// allocate.
func (c *CSR) IsMemoizedBipartition(side []int8) bool {
	return c.bip.colored.Load() && c.bip.err == nil && slices.Equal(side, c.bip.side)
}

// CrossMatching returns copies of c's memoized maximum cross matching and
// of the 2-coloring it was computed on, or ErrNotBipartite. The first
// call on a bipartite c fills the slot with match(c, side); concurrent
// first callers wait for that one run. It is the hook through which the
// matching package, which graph cannot import, memoizes its
// Hopcroft–Karp engine: match must be a deterministic function of
// (c, side), and must not retain side. Other callers want
// matching.MaximumBipartiteCSR. O(n) per call for the copies after the
// first.
func (c *CSR) CrossMatching(match func(c *CSR, side []int8) []int32) (mate []int32, side []int8, err error) {
	side, err = c.bipartition()
	if err != nil {
		return nil, nil, err
	}
	c.bip.matchOnce.Do(func() { c.bip.mate = match(c, side) })
	return slices.Clone(c.bip.mate), slices.Clone(side), nil
}

// bipartition returns the memoized coloring itself, filling it on first
// use; callers must not modify side.
func (c *CSR) bipartition() (side []int8, err error) {
	c.bip.colorOnce.Do(func() {
		c.bip.side, c.bip.err = c.color()
		c.bip.colored.Store(true)
	})
	return c.bip.side, c.bip.err
}

// color is the BFS 2-coloring behind Bipartition. O(n + m); allocates the
// side slice; the queue scratch is pooled.
func (c *CSR) color() ([]int8, error) {
	obsCSRBipartitions.Inc()
	n := c.NumVertices()
	side := make([]int8, n)
	for i := range side {
		side[i] = -1
	}
	queue := par.GetInt32(n)[:0]
	defer par.PutInt32(queue)
	for s := 0; s < n; s++ {
		if side[s] != -1 {
			continue
		}
		side[s] = 0
		queue = append(queue[:0], int32(s))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			sv := side[v]
			for _, u := range c.Neighbors(int(v)) {
				switch side[u] {
				case -1:
					side[u] = 1 - sv
					queue = append(queue, u)
				case sv:
					return nil, fmt.Errorf("%w: odd cycle through edge (%d,%d)", ErrNotBipartite, v, u)
				}
			}
		}
	}
	return side, nil
}

// Bitset is a fixed-capacity set of small non-negative integers backed by
// a []uint64 — the frontier representation of the sparse algorithms
// (Hopcroft–Karp BFS layers, König reachability). All operations are O(1)
// except Reset (O(capacity/64)); none allocate after construction.
type Bitset struct {
	words []uint64
}

// NewBitset returns an empty bitset with capacity for values 0..n-1.
// Allocates one word per 64 values.
func NewBitset(n int) *Bitset {
	if n < 0 {
		n = 0
	}
	return &Bitset{words: make([]uint64, (n+63)/64)}
}

// Set inserts v. O(1), does not allocate; v must be within capacity.
func (b *Bitset) Set(v int32) { b.words[v>>6] |= 1 << uint(v&63) }

// Has reports whether v is present. O(1), does not allocate.
func (b *Bitset) Has(v int32) bool { return b.words[v>>6]&(1<<uint(v&63)) != 0 }

// TrySetAtomic inserts v with a compare-and-swap loop, reporting whether
// this call inserted it — the vertex-ownership claim of the parallel BFS
// frontiers: exactly one worker wins each vertex, every loser sees a
// false return. Safe for concurrent use with itself and SetAtomic; do
// not mix with the plain methods inside one parallel region. O(1)
// amortized, does not allocate.
func (b *Bitset) TrySetAtomic(v int32) bool {
	addr := &b.words[v>>6]
	bit := uint64(1) << uint(v&63)
	for {
		old := atomic.LoadUint64(addr)
		if old&bit != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, old|bit) {
			return true
		}
	}
}

// SetAtomic inserts v regardless of ownership — for concurrent marking
// where double insertion is harmless (reachability sets, covered-vertex
// masks). O(1) amortized, does not allocate.
func (b *Bitset) SetAtomic(v int32) {
	addr := &b.words[v>>6]
	bit := uint64(1) << uint(v&63)
	for {
		old := atomic.LoadUint64(addr)
		if old&bit != 0 {
			return
		}
		if atomic.CompareAndSwapUint64(addr, old, old|bit) {
			return
		}
	}
}

// Reset clears the whole set for reuse across phases. O(capacity/64),
// does not allocate.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// bitsetPool backs GetBitset/PutBitset — per-solve bitsets (BFS
// visited sets, verifier masks) are the last per-call allocations the
// sparse paths would otherwise make on every solve.
var bitsetPool = sync.Pool{New: func() any { return &Bitset{} }}

// GetBitset returns a cleared bitset with capacity for values 0..n-1,
// reusing pooled storage when one of sufficient capacity is available.
// Pair with PutBitset on paths that run per solve.
func GetBitset(n int) *Bitset {
	if n < 0 {
		n = 0
	}
	words := (n + 63) / 64
	b := bitsetPool.Get().(*Bitset)
	if cap(b.words) < words {
		b.words = make([]uint64, words)
		return b
	}
	b.words = b.words[:words]
	b.Reset()
	return b
}

// PutBitset returns b to the pool. The caller must not retain b.
func PutBitset(b *Bitset) {
	if b == nil {
		return
	}
	bitsetPool.Put(b)
}
