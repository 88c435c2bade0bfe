package cover

import (
	"fmt"
	"sort"

	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/matching"
	"github.com/defender-game/defender/internal/obs"
)

// CSR edge-cover build counter (catalogued in OBSERVABILITY.md): one
// increment per Gallai edge-cover derivation on the sparse path, the
// counterpart of cover.edge_covers_built for million-vertex instances.
var obsCSREdgeCoversBuilt = obs.Default().Counter("cover.csr.edge_covers_built")

// PartitionCSR is the sparse counterpart of Partition: a split of the CSR
// graph's vertices into an independent set IS and VC = V \ IS with G a
// VC-expander, witnessed by Rep. IS and VC are ascending; Rep is indexed
// by vertex — Rep[v] is the distinct IS representative adjacent to v for
// v in VC, and -1 elsewhere. The flat int32 layout replaces Partition's
// map so a 10^6-vertex partition costs three slices, not a million map
// entries.
type PartitionCSR struct {
	IS  []int32
	VC  []int32
	Rep []int32
}

// Validate re-checks all partition properties against c: IS and VC
// partition the vertices, IS is independent, and Rep is an injective map
// from VC into adjacent IS vertices (the Hall witness of the expander
// condition). O(n + m); its two bitsets are pooled.
func (p PartitionCSR) Validate(c *graph.CSR) error {
	n := c.NumVertices()
	if len(p.Rep) != n {
		return fmt.Errorf("cover: csr partition: Rep length %d, want %d", len(p.Rep), n)
	}
	if len(p.IS)+len(p.VC) != n {
		return fmt.Errorf("cover: csr partition: |IS|+|VC| = %d, want %d", len(p.IS)+len(p.VC), n)
	}
	inIS := graph.GetBitset(n)
	defer graph.PutBitset(inIS)
	for _, v := range p.IS {
		if v < 0 || int(v) >= n || inIS.Has(v) {
			return fmt.Errorf("cover: csr partition: IS entry %d out of range or repeated", v)
		}
		inIS.Set(v)
	}
	for _, v := range p.VC {
		if v < 0 || int(v) >= n || inIS.Has(v) {
			return fmt.Errorf("cover: csr partition: VC entry %d out of range or in IS", v)
		}
	}
	for _, v := range p.IS {
		for _, u := range c.Neighbors(int(v)) {
			if inIS.Has(u) {
				return fmt.Errorf("cover: csr partition: IS is not independent, edge (%d,%d)", v, u)
			}
		}
	}
	usedRep := graph.GetBitset(n)
	defer graph.PutBitset(usedRep)
	for _, v := range p.VC {
		r := p.Rep[v]
		if r < 0 || int(r) >= n || !inIS.Has(r) {
			return fmt.Errorf("cover: csr partition: Rep[%d]=%d is not an IS vertex", v, r)
		}
		if !c.HasEdge(int(v), int(r)) {
			return fmt.Errorf("cover: csr partition: Rep[%d]=%d is not adjacent", v, r)
		}
		if usedRep.Has(r) {
			return fmt.Errorf("cover: csr partition: representative %d reused", r)
		}
		usedRep.Set(r)
	}
	return nil
}

// MinimumEdgeCoverCSRFromMatching extends a maximum matching of c (as an
// int32 mate array) into a minimum edge cover by Gallai's identity
// rho = n - mu, exactly like the dense MinimumEdgeCover but on the
// sparse path: matching edges first, then one arbitrary incident edge per
// unmatched vertex. The cover is returned as parallel endpoint slices.
// Returns ErrIsolatedVertex when some vertex has degree 0. O(n + m);
// allocates the two endpoint slices.
func MinimumEdgeCoverCSRFromMatching(c *graph.CSR, mate []int32) (us, vs []int32, err error) {
	n := c.NumVertices()
	if len(mate) != n {
		return nil, nil, fmt.Errorf("cover: mate array has length %d, want %d", len(mate), n)
	}
	if c.HasIsolatedVertex() {
		return nil, nil, ErrIsolatedVertex
	}
	obsCSREdgeCoversBuilt.Inc()
	size := n - matching.SizeCSR(mate)
	us = make([]int32, 0, size)
	vs = make([]int32, 0, size)
	for v := 0; v < n; v++ {
		switch u := mate[v]; {
		case u == matching.Unmatched:
			// Any incident edge will do; the neighbor is necessarily
			// matched, or the matching would not be maximum.
			us = append(us, int32(v))
			vs = append(vs, c.Neighbors(v)[0])
		case int(u) > v:
			us = append(us, int32(v))
			vs = append(vs, u)
		}
	}
	return us, vs, nil
}

// findNEPartitionGreedyCSR tries deterministic greedy maximal independent
// sets (natural and ascending-degree vertex orders) and keeps the first
// complement that admits a system of distinct representatives, decided by
// a subgraph Hopcroft–Karp between VC and IS. It cannot prove
// non-existence: failure is ErrPartitionNotFound. This is the sparse
// route for non-bipartite graphs, where no polynomial guarantee exists
// (see SCALING.md "Routing"). O(tries · m sqrt n); allocates per-try
// scratch.
func findNEPartitionGreedyCSR(c *graph.CSR) (PartitionCSR, error) {
	if c.HasIsolatedVertex() {
		return PartitionCSR{}, ErrIsolatedVertex
	}
	n := c.NumVertices()
	natural := make([]int32, n)
	for i := range natural {
		natural[i] = int32(i)
	}
	ascending := sortedByDegreeCSR(c)
	for _, order := range [][]int32{natural, ascending} {
		is := greedyIndependentSetCSR(c, order)
		side := make([]int8, n) // 0 = VC (left), 1 = IS (right)
		for _, v := range is {
			side[v] = 1
		}
		mate := matching.HopcroftKarpCSRSubgraph(c, side)
		saturated := true
		vc := make([]int32, 0, n-len(is))
		for v := 0; v < n; v++ {
			if side[v] != 0 {
				continue
			}
			vc = append(vc, int32(v))
			if mate[v] == matching.Unmatched {
				saturated = false
				break
			}
		}
		if !saturated {
			continue
		}
		if p, err := partitionFromRepMatching(c, vc, mate); err == nil {
			return p, nil
		}
	}
	return PartitionCSR{}, ErrPartitionNotFound
}

// FindNEPartitionCSR is the combined sparse search the large-instance
// solvers use, routed by the bipartiteness check. Bipartite graphs take
// the guaranteed König route (polynomial, always succeeds): VC is the
// König minimum vertex cover of c's maximum matching, IS its complement,
// and the representatives are the matching mates — every König cover
// vertex is matched, its mate lies in IS (each matching edge has exactly
// one cover endpoint), and mates are distinct. The coloring and the
// matching are the ones memoized on c (matching.MaximumBipartiteCSR), so
// a solve that already computed ρ(G) pays for neither again. Everything
// else takes the greedy-plus-SDR heuristic, which cannot prove
// non-existence — exact refutation stays on the dense path,
// FindNEPartition. Returns ErrIsolatedVertex when the game is
// ill-defined. O(m sqrt n) on the bipartite route, O(n + m) once the
// matching is memoized.
func FindNEPartitionCSR(c *graph.CSR) (PartitionCSR, error) {
	if c.HasIsolatedVertex() {
		return PartitionCSR{}, ErrIsolatedVertex
	}
	mate, side, err := matching.MaximumBipartiteCSR(c)
	if err != nil {
		return findNEPartitionGreedyCSR(c)
	}
	vc := matching.KonigVertexCoverCSR(c, side, mate)
	return partitionFromRepMatching(c, vc, mate)
}

// greedyIndependentSetCSR returns a maximal independent set built by
// scanning vertices in the given order, ascending. O(n + m); allocates the set, a blocked bitset,
// and the sort scratch.
func greedyIndependentSetCSR(c *graph.CSR, order []int32) []int32 {
	n := c.NumVertices()
	blocked := graph.GetBitset(n)
	defer graph.PutBitset(blocked)
	var is []int32
	for _, v := range order {
		if v < 0 || int(v) >= n || blocked.Has(v) {
			continue
		}
		is = append(is, v)
		blocked.Set(v)
		for _, u := range c.Neighbors(int(v)) {
			blocked.Set(u)
		}
	}
	sort.Slice(is, func(i, j int) bool { return is[i] < is[j] })
	return is
}

// partitionFromRepMatching assembles a PartitionCSR from a vertex cover
// and a matching that saturates it with IS-side mates, validating the
// result (the König invariants are structural, but a corrupted matching
// must not produce a silently wrong partition). It takes ownership of
// mate, which becomes the partition's Rep: the cover's entries are kept
// and every other entry is cleared, so the partition costs no second
// n-vertex array.
func partitionFromRepMatching(c *graph.CSR, vc []int32, mate []int32) (PartitionCSR, error) {
	n := c.NumVertices()
	inVC := graph.GetBitset(n)
	defer graph.PutBitset(inVC)
	for _, v := range vc {
		inVC.Set(v)
	}
	for _, v := range vc {
		if r := mate[v]; r == matching.Unmatched || inVC.Has(r) {
			return PartitionCSR{}, fmt.Errorf("%w: cover vertex %d has no IS mate", ErrPartitionNotFound, v)
		}
	}
	rep := mate
	is := make([]int32, 0, n-len(vc))
	for v := 0; v < n; v++ {
		if !inVC.Has(int32(v)) {
			is = append(is, int32(v))
			rep[v] = matching.Unmatched
		}
	}
	p := PartitionCSR{IS: is, VC: vc, Rep: rep}
	if err := p.Validate(c); err != nil {
		return PartitionCSR{}, fmt.Errorf("%w: %v", ErrPartitionNotFound, err)
	}
	return p, nil
}

// sortedByDegreeCSR returns the vertices in ascending-degree order
// (stable counting sort over degrees). O(n + Δ); allocates the order and
// bucket slices.
func sortedByDegreeCSR(c *graph.CSR) []int32 {
	n := c.NumVertices()
	maxDeg := c.MaxDegree()
	count := make([]int32, maxDeg+2)
	for v := 0; v < n; v++ {
		count[c.Degree(v)+1]++
	}
	for d := 1; d < len(count); d++ {
		count[d] += count[d-1]
	}
	order := make([]int32, n)
	for v := 0; v < n; v++ {
		d := c.Degree(v)
		order[count[d]] = int32(v)
		count[d]++
	}
	return order
}
