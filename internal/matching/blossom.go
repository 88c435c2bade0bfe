package matching

import (
	"context"

	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/obs"
)

// Blossom iteration counters (catalogued in OBSERVABILITY.md): one search
// per alternating-tree growth from a free vertex, one augmentation per
// search that finds an augmenting path, one contraction per odd cycle
// collapsed. The searches:augmentations ratio exposes how much work the
// greedy initialization already did.
var (
	obsBlossomSearches      = obs.Default().Counter("matching.blossom.searches")
	obsBlossomAugmentations = obs.Default().Counter("matching.blossom.augmentations")
	obsBlossomContractions  = obs.Default().Counter("matching.blossom.contractions")
)

// Maximum computes a maximum matching of an arbitrary (not necessarily
// bipartite) graph using Edmonds' blossom algorithm, in O(n^3) time.
//
// The paper's Corollary 3.2 reduces pure-equilibrium existence to computing
// a minimum edge cover, which by Gallai's identity requires a maximum
// matching of a general graph — hence the blossom machinery rather than
// only Hopcroft–Karp. Allocates the blossom state (several O(n) arrays)
// and the mate array it returns; for million-vertex bipartite instances
// use MaximumBipartiteCSR instead (see SCALING.md).
func Maximum(g *graph.Graph) []int {
	return MaximumCtx(context.Background(), g)
}

// MaximumCtx is Maximum under ctx's trace: the blossom run is timed as
// the span "matching.maximum" (histogram matching.maximum.seconds), so
// solve waterfalls expose the O(n^3) general-matching leg separately
// from the rest of the cover pipeline. The algorithm itself is not
// interruptible; ctx only correlates.
func MaximumCtx(ctx context.Context, g *graph.Graph) []int {
	sp, _ := obs.Default().StartSpanCtx(ctx, "matching.maximum")
	defer sp.End()
	b := newBlossomState(g)
	// Greedy initialization cuts the number of augmentation phases roughly
	// in half on random graphs without affecting correctness.
	b.mate = Greedy(g)
	for v := 0; v < b.n; v++ {
		if b.mate[v] == Unmatched {
			obsBlossomSearches.Inc()
			if end := b.findAugmentingPath(v); end != Unmatched {
				obsBlossomAugmentations.Inc()
				b.augment(end)
			}
		}
	}
	return b.mate
}

// blossomState carries the per-phase scratch arrays of the algorithm.
type blossomState struct {
	g    *graph.Graph
	n    int
	mate []int
	// p is the alternating-tree parent pointer of each vertex (over
	// non-matching edges); base maps each vertex to the base of the
	// blossom currently containing it.
	p    []int
	base []int
	used []bool
	q    []int
}

func newBlossomState(g *graph.Graph) *blossomState {
	n := g.NumVertices()
	return &blossomState{
		g:    g,
		n:    n,
		mate: NewMateArray(n),
		p:    make([]int, n),
		base: make([]int, n),
		used: make([]bool, n),
		q:    make([]int, 0, n),
	}
}

// findAugmentingPath grows an alternating tree rooted at the free vertex
// root, contracting blossoms as they appear. It returns the free vertex at
// the far end of an augmenting path, or Unmatched if none exists.
func (b *blossomState) findAugmentingPath(root int) int {
	for i := 0; i < b.n; i++ {
		b.p[i] = Unmatched
		b.base[i] = i
		b.used[i] = false
	}
	b.used[root] = true
	b.q = append(b.q[:0], root)

	for head := 0; head < len(b.q); head++ {
		v := b.q[head]
		for _, to := range b.g.Neighbors(v) {
			if b.base[v] == b.base[to] || b.mate[v] == to {
				continue
			}
			if to == root || (b.mate[to] != Unmatched && b.p[b.mate[to]] != Unmatched) {
				// v and to are both even-level vertices of the tree: the
				// edge closes an odd cycle — contract the blossom.
				b.contractBlossom(v, to)
			} else if b.p[to] == Unmatched {
				b.p[to] = v
				if b.mate[to] == Unmatched {
					return to // augmenting path root..v-to found
				}
				next := b.mate[to]
				b.used[next] = true
				b.q = append(b.q, next)
			}
		}
	}
	return Unmatched
}

// contractBlossom contracts the odd cycle closed by the edge (v, to):
// every vertex on the two tree paths down to the lowest common ancestor is
// re-based onto that ancestor and re-enqueued as an even vertex.
func (b *blossomState) contractBlossom(v, to int) {
	obsBlossomContractions.Inc()
	curBase := b.lowestCommonAncestor(v, to)
	inBlossom := make([]bool, b.n)
	b.markPath(v, curBase, to, inBlossom)
	b.markPath(to, curBase, v, inBlossom)
	for i := 0; i < b.n; i++ {
		if inBlossom[b.base[i]] {
			b.base[i] = curBase
			if !b.used[i] {
				b.used[i] = true
				b.q = append(b.q, i)
			}
		}
	}
}

// lowestCommonAncestor walks to the root from a (through blossom bases and
// matched edges), marking the bases it visits, then walks from b2 until it
// hits a marked base.
func (b *blossomState) lowestCommonAncestor(a, b2 int) int {
	visited := make([]bool, b.n)
	for {
		a = b.base[a]
		visited[a] = true
		if b.mate[a] == Unmatched {
			break
		}
		a = b.p[b.mate[a]]
	}
	for {
		b2 = b.base[b2]
		if visited[b2] {
			return b2
		}
		b2 = b.p[b.mate[b2]]
	}
}

// markPath records parent pointers along the tree path from v down to the
// blossom base `stop`, so that a later augmentation can thread through the
// contracted blossom, and marks the traversed bases as blossom members.
func (b *blossomState) markPath(v, stop, child int, inBlossom []bool) {
	for b.base[v] != stop {
		inBlossom[b.base[v]] = true
		inBlossom[b.base[b.mate[v]]] = true
		b.p[v] = child
		child = b.mate[v]
		v = b.p[b.mate[v]]
	}
}

// augment flips matched and unmatched edges along the alternating path that
// ends at the free vertex end (following parent pointers back to the root).
func (b *blossomState) augment(end int) {
	v := end
	for v != Unmatched {
		pv := b.p[v]
		ppv := b.mate[pv]
		b.mate[v] = pv
		b.mate[pv] = v
		v = ppv
	}
}
