package graph

import (
	"math/rand"
	"sort"
)

// Generator draws random graphs from a single injected *rand.Rand, so a
// whole experiment suite is reproducible from one seed: build one
// Generator, thread it everywhere, and every draw — across models and
// interleavings — replays identically. The package-level Random*
// convenience functions construct a fresh seeded Generator per call; code
// that draws more than one graph should hold a Generator instead.
//
// The globalrand analyzer (cmd/defenderlint) enforces that no non-test
// code falls back to the process-global math/rand source.
type Generator struct {
	rng *rand.Rand
}

// NewGenerator wraps an explicit source. A nil rng falls back to a fixed
// seed of 1, keeping the zero-config path deterministic rather than
// silently global.
// O(1); allocates the wrapper (and a default source when rng is nil).
func NewGenerator(rng *rand.Rand) *Generator {
	if rng == nil {
		return NewSeededGenerator(1)
	}
	return &Generator{rng: rng}
}

// NewSeededGenerator builds a Generator with its own source seeded from
// seed.
// O(1); allocates the generator and its rand source.
func NewSeededGenerator(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed))}
}

// GNP draws an Erdős–Rényi graph G(n, p).
// Costs n(n-1)/2 coin flips and the accepted AddEdge insertions;
// allocates the returned graph.
func (gen *Generator) GNP(n int, p float64) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if gen.rng.Float64() < p {
				g.mustAddEdge(u, v)
			}
		}
	}
	return g
}

// Bipartite draws a random bipartite graph with sides of size a and b
// where every cross pair is an edge independently with probability p. To
// avoid isolated vertices (the Tuple model forbids them), every vertex
// that ends up isolated is attached to a uniformly random vertex of the
// other side (requires a, b >= 1).
// Costs a·b coin flips plus the accepted AddEdge insertions; allocates
// the returned graph.
func (gen *Generator) Bipartite(a, b int, p float64) *Graph {
	g := New(a + b)
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			if gen.rng.Float64() < p {
				g.mustAddEdge(u, v)
			}
		}
	}
	if a >= 1 && b >= 1 {
		for u := 0; u < a; u++ {
			if g.Degree(u) == 0 {
				g.mustAddEdge(u, a+gen.rng.Intn(b))
			}
		}
		for v := a; v < a+b; v++ {
			if g.Degree(v) == 0 {
				g.mustAddEdge(gen.rng.Intn(a), v)
			}
		}
	}
	return g
}

// Tree draws a uniformly random labelled tree on n vertices, built by
// decoding a random Prüfer sequence.
// O(n log n) (Prüfer decode with sorted bookkeeping); allocates the
// returned tree and decode scratch.
func (gen *Generator) Tree(n int) *Graph {
	g := New(n)
	if n <= 1 {
		return g
	}
	if n == 2 {
		g.mustAddEdge(0, 1)
		return g
	}
	prufer := make([]int, n-2)
	for i := range prufer {
		prufer[i] = gen.rng.Intn(n)
	}
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, v := range prufer {
		degree[v]++
	}
	// Repeatedly attach the smallest leaf to the next Prüfer symbol.
	leaf := -1
	ptr := 0
	next := func() int {
		if leaf != -1 {
			v := leaf
			leaf = -1
			return v
		}
		for degree[ptr] != 1 {
			ptr++
		}
		v := ptr
		ptr++
		return v
	}
	for _, p := range prufer {
		v := next()
		g.mustAddEdge(v, p)
		degree[v]--
		degree[p]--
		if degree[p] == 1 && p < ptr {
			leaf = p
		}
	}
	// Two vertices of degree 1 remain; join them.
	u, v := -1, -1
	for w := 0; w < n; w++ {
		if degree[w] == 1 {
			if u == -1 {
				u = w
			} else {
				v = w
			}
		}
	}
	g.mustAddEdge(u, v)
	return g
}

// Connected draws a connected Erdős–Rényi-style graph: a random tree
// backbone (guaranteeing connectivity and no isolated vertices) plus each
// remaining pair as an edge with probability p.
// O(n^2) coin flips over the remaining pairs plus the spanning-tree
// build; allocates the returned graph.
func (gen *Generator) Connected(n int, p float64) *Graph {
	g := gen.Tree(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) && gen.rng.Float64() < p {
				g.mustAddEdge(u, v)
			}
		}
	}
	return g
}

// BarabasiAlbert grows a scale-free graph by preferential attachment:
// starting from a clique on m0 = attach vertices, every new vertex draws
// `attach` distinct neighbors with probability proportional to current
// degree. The result is connected with no isolated vertices; n must be
// at least attach+1 and attach >= 1.
// O(n·attach) draws against the repeated-endpoint pool; allocates the
// returned graph and the pool.
func (gen *Generator) BarabasiAlbert(n, attach int) *Graph {
	if attach < 1 {
		attach = 1
	}
	if n < attach+1 {
		n = attach + 1
	}
	g := New(n)
	// Seed clique keeps early degrees positive.
	for u := 0; u < attach; u++ {
		for v := u + 1; v < attach; v++ {
			g.mustAddEdge(u, v)
		}
	}
	// repeated lists every endpoint once per incident edge: sampling from
	// it is degree-proportional sampling.
	var repeated []int
	for _, e := range g.Edges() {
		repeated = append(repeated, e.U, e.V)
	}
	if len(repeated) == 0 { // attach == 1: no seed edges yet
		repeated = []int{0}
	}
	for v := attach; v < n; v++ {
		chosen := make(map[int]bool, attach)
		for len(chosen) < attach {
			var candidate int
			if len(repeated) == 0 || gen.rng.Intn(10) == 0 {
				// Small uniform component keeps degenerate cases moving.
				candidate = gen.rng.Intn(v)
			} else {
				candidate = repeated[gen.rng.Intn(len(repeated))]
			}
			if candidate != v && !chosen[candidate] {
				chosen[candidate] = true
			}
		}
		// Attach in sorted order: ranging over the map would leak map
		// iteration order into the repeated list and make same-seed runs
		// diverge.
		neighbors := make([]int, 0, attach)
		for u := range chosen {
			neighbors = append(neighbors, u)
		}
		sort.Ints(neighbors)
		for _, u := range neighbors {
			g.mustAddEdge(v, u)
			repeated = append(repeated, v, u)
		}
	}
	return g
}

// WattsStrogatz builds a small-world graph: a ring lattice on n vertices
// where each vertex connects to its k/2 nearest neighbors on each side
// (k even, k < n), then each lattice edge is rewired with probability p to
// a uniformly random non-duplicate endpoint. Rewirings that would isolate
// a vertex or duplicate an edge are skipped, so the result stays simple
// with minimum degree >= 1.
// O(n·k) ring construction plus rewiring draws; allocates the returned
// graph.
func (gen *Generator) WattsStrogatz(n, k int, p float64) *Graph {
	if k < 2 {
		k = 2
	}
	if k%2 == 1 {
		k++
	}
	if n <= k {
		n = k + 1
	}
	g := New(n)
	for v := 0; v < n; v++ {
		for j := 1; j <= k/2; j++ {
			u := (v + j) % n
			if !g.HasEdge(v, u) {
				g.mustAddEdge(v, u)
			}
		}
	}
	// Rewire: rebuild the edge set with random replacements.
	edges := g.Edges()
	out := New(n)
	for _, e := range edges {
		if gen.rng.Float64() >= p {
			if !out.HasEdge(e.U, e.V) {
				out.mustAddEdge(e.U, e.V)
			}
			continue
		}
		rewired := false
		for attempt := 0; attempt < 2*n; attempt++ {
			w := gen.rng.Intn(n)
			if w != e.U && !out.HasEdge(e.U, w) && !g.HasEdge(e.U, w) {
				out.mustAddEdge(e.U, w)
				rewired = true
				break
			}
		}
		if !rewired && !out.HasEdge(e.U, e.V) {
			out.mustAddEdge(e.U, e.V)
		}
	}
	// Ensure no vertex lost all incident edges to rewiring.
	for v := 0; v < n; v++ {
		if out.Degree(v) == 0 {
			u := (v + 1) % n
			if !out.HasEdge(v, u) {
				out.mustAddEdge(v, u)
			}
		}
	}
	return out
}

// tryPairing runs one round of the configuration model.
func tryPairing(n, d int, rng *rand.Rand) (*Graph, bool) {
	stubs := make([]int, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, v)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	g := New(n)
	for i := 0; i < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v || g.HasEdge(u, v) {
			return nil, false
		}
		g.mustAddEdge(u, v)
	}
	return g, true
}
