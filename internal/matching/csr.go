package matching

import (
	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/obs"
	"github.com/defender-game/defender/internal/par"
)

// CSR Hopcroft–Karp phase counter (catalogued in OBSERVABILITY.md): one
// increment per BFS layering that found an augmenting path, so the
// O(sqrt n) phase bound stays empirically checkable at 10^6 vertices.
var obsCSRHKPhases = obs.Default().Counter("matching.csr.hopcroftkarp.phases")

// hkParallelGrain is the vertex count below which the phase BFS stays
// inline: the result is bit-identical at any worker count, fan-out just
// does not pay for small instances.
const hkParallelGrain = 1 << 15

// HopcroftKarpCSRSubgraph computes a maximum matching of the bipartite
// subgraph of c induced by the cross edges between side-0 and side-1
// vertices. It does not validate side: side[v] may be -1 (vertex
// excluded) and same-side edges are skipped rather than rejected. This
// is how the sparse partition search matches VC vertices to distinct IS
// representatives (Corollary 4.11's SDR) without materializing the
// auxiliary bipartite graph. O(m sqrt n); excluded vertices stay
// Unmatched.
//
// When c's 2-coloring is already memoized and side equals it, the call is
// MaximumBipartiteCSR's: it returns (a copy of) the matching memoized on
// c, running the engine only if no call has yet. The check costs an O(n)
// compare and never computes a coloring; any other side is matched
// fresh and leaves the memo alone. Either way the mates are the engine's
// deterministic output on (c, side), and the caller owns them.
func HopcroftKarpCSRSubgraph(c *graph.CSR, side []int8) []int32 {
	if c.IsMemoizedBipartition(side) {
		if mate, _, err := c.CrossMatching(hopcroftKarpCSR); err == nil {
			return mate
		}
	}
	return hopcroftKarpCSR(c, side)
}

// hopcroftKarpCSR is the engine behind both entry points: left = side 0,
// right = side 1, every other vertex and every non-cross edge ignored.
// It is the scale path: a Karp–Sipser warm start (karpSipser) that leaves
// only a handful of vertices for the phases to match, BFS layering with
// bitset frontiers reset in O(n/64) words per phase, and an iterative DFS
// with a per-vertex edge cursor so each phase touches every arc at most
// once — no recursion, no per-phase reallocation. The O(n) scratch is
// drawn from the par pools; the per-worker next frontiers grow by append,
// once per call.
//
// The phase BFS is the multicore leg: above hkParallelGrain vertices it
// expands each layer level-synchronously on the par worker budget, with
// atomic bitset claims deciding vertex ownership and per-worker next
// frontiers merged in worker order. A left vertex's layer is its
// alternating-path distance from the free set — the same quantity the
// serial FIFO computes — so the layered graph, the augmenting DFS that
// walks it (always serial: its shared arc cursors are order-dependent by
// design), and hence the returned matching are bit-identical at every
// thread count.
func hopcroftKarpCSR(c *graph.CSR, side []int8) []int32 {
	n := c.NumVertices()
	mate := make([]int32, n)
	for i := range mate {
		mate[i] = Unmatched
	}
	left := par.GetInt32(n)[:0]
	defer func() { par.PutInt32(left) }()
	for v := 0; v < n; v++ {
		if side[v] == 0 {
			left = append(left, int32(v))
		}
	}

	dist := par.GetInt32(n)
	ptr := par.GetInt32(n)
	frontier := par.GetInt32(n)
	stack := par.GetInt32(n)[:0]
	defer func() {
		par.PutInt32(dist)
		par.PutInt32(ptr)
		par.PutInt32(frontier)
		par.PutInt32(stack)
	}()
	// The phases have not started, so two of their arrays double as the
	// warm start's degree and queue scratch: it allocates nothing.
	karpSipser(c, side, left, mate, dist, ptr)
	visited := graph.GetBitset(n)
	defer graph.PutBitset(visited)
	workers := par.Split(par.Workers(0), n, hkParallelGrain)
	nexts := make([][]int32, workers)
	founds := make([]bool, workers)

	// bfs layers left vertices by alternating-path distance from the free
	// ones; dist is only meaningful where visited is set, so the per-phase
	// reset is the bitset's O(n/64) word clear, not an O(n) fill.
	bfs := func() bool {
		visited.Reset()
		frontLen := 0
		for _, v := range left {
			if mate[v] == Unmatched {
				dist[v] = 0
				visited.Set(v)
				frontier[frontLen] = v
				frontLen++
			}
		}
		found := false
		if workers == 1 {
			queue := frontier[:frontLen]
			for head := 0; head < len(queue); head++ {
				v := queue[head]
				for _, u := range c.Neighbors(int(v)) {
					if side[u] != 1 {
						continue
					}
					w := mate[u]
					if w == Unmatched {
						found = true
					} else if !visited.Has(w) {
						visited.Set(w)
						dist[w] = dist[v] + 1
						queue = append(queue, w)
					}
				}
			}
			return found
		}
		for frontLen > 0 {
			fw := par.Split(workers, frontLen, 512)
			for w := 0; w < fw; w++ {
				nexts[w] = nexts[w][:0]
				founds[w] = false
			}
			par.For(fw, frontLen, func(w, lo, hi int) {
				next := nexts[w]
				hit := false
				for fi := lo; fi < hi; fi++ {
					v := frontier[fi]
					dv := dist[v]
					for _, u := range c.Neighbors(int(v)) {
						if side[u] != 1 {
							continue
						}
						m := mate[u]
						if m == Unmatched {
							hit = true
						} else if visited.TrySetAtomic(m) {
							dist[m] = dv + 1
							next = append(next, m)
						}
					}
				}
				nexts[w] = next
				founds[w] = hit
			})
			frontLen = 0
			for w := 0; w < fw; w++ {
				found = found || founds[w]
				frontLen += copy(frontier[frontLen:], nexts[w])
			}
		}
		return found
	}

	// dfs searches for an augmenting path from root along the BFS layers,
	// iteratively: the stack holds the left vertices of the current
	// alternating path, ptr[v] the next arc to try (persisting across
	// roots, so a phase scans each arc once). A stacked vertex's cursor
	// stays frozen while its child is above it, so Col[ptr[x]-1] is the
	// right vertex x pairs with if the path augments.
	dfs := func(root int32) bool {
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			advanced := false
			for ptr[v] < c.RowPtr[v+1] {
				u := c.Col[ptr[v]]
				ptr[v]++
				if side[u] != 1 {
					continue
				}
				w := mate[u]
				if w == Unmatched {
					for _, x := range stack {
						y := c.Col[ptr[x]-1]
						mate[x], mate[y] = y, x
					}
					return true
				}
				if visited.Has(w) && dist[w] == dist[v]+1 {
					stack = append(stack, w)
					advanced = true
					break
				}
			}
			if !advanced {
				stack = stack[:len(stack)-1]
			}
		}
		return false
	}

	for bfs() {
		obsCSRHKPhases.Inc()
		copy(ptr, c.RowPtr[:n])
		for _, v := range left {
			if mate[v] == Unmatched {
				dfs(v)
			}
		}
	}
	return mate
}

// karpSipser fills mate with the warm start: a serial Karp–Sipser pass
// over the cross edges. A vertex's live degree is its number of free cross
// neighbours. Any free vertex of live degree 1 is matched to its one
// neighbour — always safe, some maximum matching contains that edge — and
// only when none is left does the pass take the next free left vertex in
// index order and pair it with its free neighbour of lowest live degree
// (the first such in adjacency order). On a forest the second rule never
// fires, so the start alone is maximum; on a 10^6-vertex BA-bipartite
// graph it leaves tens of its 500,000 left vertices free, and three
// phases finish the job. Serial and deterministic, so the matching does
// not depend on the thread budget.
//
// deg and queue are caller-owned scratch of length and capacity at least
// n; their contents are overwritten. O(n + m): each vertex is queued at
// most once (live degrees only fall, so each reaches 1 at most once) and
// each matched endpoint scans its neighbours once.
func karpSipser(c *graph.CSR, side []int8, left, mate, deg, queue []int32) {
	n := c.NumVertices()
	queue = queue[:0]
	for v := 0; v < n; v++ {
		d := int32(0)
		if s := side[v]; s == 0 || s == 1 {
			for _, u := range c.Neighbors(v) {
				if side[u] == 1-s {
					d++
				}
			}
		}
		deg[v] = d
		if d == 1 {
			queue = append(queue, int32(v))
		}
	}
	// take pairs v with u and removes both from their free neighbours'
	// live degrees, queueing every neighbour left with exactly one.
	take := func(v, u int32) {
		mate[v], mate[u] = u, v
		for _, x := range [2]int32{v, u} {
			other := 1 - side[x]
			for _, w := range c.Neighbors(int(x)) {
				if side[w] == other && mate[w] == Unmatched {
					deg[w]--
					if deg[w] == 1 {
						queue = append(queue, w)
					}
				}
			}
		}
	}
	head, next := 0, 0
	for {
		for ; head < len(queue); head++ {
			v := queue[head]
			if mate[v] != Unmatched || deg[v] != 1 {
				continue // matched meanwhile, or its last neighbour was
			}
			other := 1 - side[v]
			for _, u := range c.Neighbors(int(v)) {
				if side[u] == other && mate[u] == Unmatched {
					take(v, u)
					break
				}
			}
		}
		for next < len(left) && (mate[left[next]] != Unmatched || deg[left[next]] == 0) {
			next++
		}
		if next == len(left) {
			return
		}
		v, best := left[next], int32(Unmatched)
		for _, u := range c.Neighbors(int(v)) {
			if side[u] == 1 && mate[u] == Unmatched && (best == Unmatched || deg[u] < deg[best]) {
				best = u
			}
		}
		take(v, best)
	}
}

// MaximumBipartiteCSR computes a maximum matching of a CSR graph, deriving
// the bipartition itself and returning it alongside the mate array (König
// conversion needs both). Returns graph.ErrNotBipartite on an odd cycle.
// Both are memoized on c (graph.CSR.CrossMatching): the first call
// colors and matches, O(m sqrt n); every later call, and every
// HopcroftKarpCSRSubgraph call on the memoized coloring, copies them out
// in O(n). The caller owns the returned slices.
func MaximumBipartiteCSR(c *graph.CSR) ([]int32, []int8, error) {
	return c.CrossMatching(hopcroftKarpCSR)
}

// SizeCSR returns the number of edges in the matching encoded by an int32
// mate array. O(n), does not allocate.
func SizeCSR(mate []int32) int {
	count := 0
	for v, u := range mate {
		if u != Unmatched && int(u) > v {
			count++
		}
	}
	return count
}

// KonigVertexCoverCSR converts a maximum matching of a bipartite CSR graph
// into a minimum vertex cover using König's theorem, exactly like
// KonigVertexCover but on the sparse path: alternating BFS from the free
// left vertices with a bitset reachability set, cover = unreached left +
// reached right, ascending. side must be the 2-coloring the matching was
// computed with and mate a maximum matching. O(n + m); allocates only
// the returned cover — the queue and reachability bitset are pooled.
func KonigVertexCoverCSR(c *graph.CSR, side []int8, mate []int32) []int32 {
	n := c.NumVertices()
	reached := graph.GetBitset(n)
	defer graph.PutBitset(reached)
	queue := par.GetInt32(n)[:0]
	defer func() { par.PutInt32(queue) }()
	for v := 0; v < n; v++ {
		if side[v] == 0 && mate[v] == Unmatched {
			reached.Set(int32(v))
			queue = append(queue, int32(v))
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if side[v] == 0 {
			// Leave the left side via non-matching edges.
			for _, u := range c.Neighbors(int(v)) {
				if mate[v] != u && !reached.Has(u) {
					reached.Set(u)
					queue = append(queue, u)
				}
			}
		} else if w := mate[v]; w != Unmatched && !reached.Has(w) {
			// Return to the left side via the matching edge.
			reached.Set(w)
			queue = append(queue, w)
		}
	}
	cover := make([]int32, 0, SizeCSR(mate)) // König: |cover| = |matching|
	for v := 0; v < n; v++ {
		r := reached.Has(int32(v))
		if (side[v] == 0 && !r) || (side[v] == 1 && r) {
			cover = append(cover, int32(v))
		}
	}
	return cover
}
