package cover

import (
	"errors"
	"fmt"
	"math/bits"

	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/matching"
)

// Partition is a split of V(G) into an independent set IS and its
// complement VC such that G is a VC-expander in the equilibrium-relevant
// sense (every X ⊆ VC has ≥ |X| distinct neighbors inside IS). By
// Corollary 4.11 this is exactly the class of graphs admitting k-matching
// Nash equilibria, for every k. Rep is the system of distinct
// representatives matching VC into IS that witnesses the expander property.
type Partition struct {
	IS  []int
	VC  []int
	Rep map[int]int
}

// Validate re-checks all three partition properties against g.
// O(n + |VC| · m) (SDR-dominated); allocates check scratch.
// Sparse counterpart: PartitionCSR.Validate.
func (p Partition) Validate(g *graph.Graph) error {
	if !graph.IsPartition(p.IS, p.VC, g.NumVertices()) {
		return fmt.Errorf("cover: IS and VC do not partition the %d vertices", g.NumVertices())
	}
	if !IsIndependentSet(g, p.IS) {
		return errors.New("cover: IS is not an independent set")
	}
	if rep, violator := IsNEExpander(g, p.IS, p.VC); rep == nil {
		return fmt.Errorf("cover: G is not a VC-expander, violator %v", violator)
	}
	return nil
}

// FindNEPartition decides Corollary 4.11 exactly for every graph and
// returns a partition, ErrNoPartition (a proof that no k-matching
// equilibrium exists) or ErrIsolatedVertex. It rejects isolated vertices,
// computes the blossom maximum matching and hands it to
// FindNEPartitionFromMatching. O(n^3) (blossom-dominated). Sparse
// counterpart: FindNEPartitionCSR, routing documented in SCALING.md
// "Routing".
func FindNEPartition(g *graph.Graph) (Partition, error) {
	if g.HasIsolatedVertex() {
		return Partition{}, ErrIsolatedVertex
	}
	return FindNEPartitionFromMatching(g, matching.Maximum(g))
}

// FindNEPartitionFromMatching is FindNEPartition over an already-computed
// maximum matching mate of g, for callers that read the same matching for
// the edge-cover number and the perfect-matching family. Bipartite graphs
// take the König route of Theorem 5.1: VC is the König minimum vertex
// cover (matching.KonigVertexCover), IS its complement, and the
// representatives come from IsNEExpander. The cover is the same for every
// maximum matching, so the partition does not depend on which one mate
// is. Every other graph takes the König–Egerváry route: with the
// IS-restricted expander condition a partition exists iff ν(G) = τ(G),
// which mate turns into a 2-SAT instance (partitionFromMatching).
// O(n + |VC| · m) on bipartite graphs, O(n + m) otherwise; allocates the
// partition and its scratch.
func FindNEPartitionFromMatching(g *graph.Graph, mate []int) (Partition, error) {
	if g.HasIsolatedVertex() {
		return Partition{}, ErrIsolatedVertex
	}
	side, err := g.Bipartition()
	if err != nil {
		return partitionFromMatching(g, mate)
	}
	vc := matching.KonigVertexCover(g, side, mate)
	is := graph.SetComplement(vc, g.NumVertices())
	rep, violator := IsNEExpander(g, is, vc)
	if rep == nil {
		// Cannot happen for a König cover of a graph without isolated
		// vertices: each cover vertex is matched, and each matching edge has
		// exactly one endpoint in the cover. Guard anyway.
		return Partition{}, fmt.Errorf("cover: König cover failed expander check, violator %v", violator)
	}
	return Partition{IS: is, VC: vc, Rep: rep}, nil
}

// partitionFromMatching looks for a vertex cover C that holds exactly
// one endpoint of every edge of the matching mate and no unmatched
// vertex, i.e. a cover of size |M|. Such a cover makes (V∖C, C) a
// partition with the mates as representatives: V∖C is independent, and
// each cover vertex's mate lies outside C. Conversely, when M is maximum
// every partition's VC is such a cover: VC covers every edge and its
// representatives are a matching, so ν ≥ |VC| ≥ τ ≥ ν and |VC| = |M|.
// An unsatisfiable instance therefore proves ErrNoPartition (Gavril
// 1977; Deming 1979, Sterboul 1979). The search is 2-SAT over "v ∈ C"
// (satisfy2SAT). O(n + m); allocates the implication graph and the
// partition.
func partitionFromMatching(g *graph.Graph, mate []int) (Partition, error) {
	n := g.NumVertices()
	imp := make([][]int, 2*n) // literal 2v is "v ∈ C", 2v+1 "v ∉ C"
	for v := 0; v < n; v++ {
		// C covers every edge, so v ∉ C puts each neighbor in C.
		imp[2*v+1] = g.Neighbors(v)
		for i, u := range imp[2*v+1] {
			imp[2*v+1][i] = 2 * u
		}
		// One endpoint per matching edge: v ∈ C puts its mate out of C,
		// and an unmatched v cannot be in C at all.
		if u := mate[v]; u == matching.Unmatched {
			imp[2*v] = []int{2*v + 1}
		} else {
			imp[2*v] = []int{2*u + 1}
		}
	}
	inC, ok := satisfy2SAT(imp)
	if !ok {
		return Partition{}, ErrNoPartition
	}
	p := Partition{Rep: make(map[int]int)}
	for v := 0; v < n; v++ {
		if inC[v] {
			p.VC = append(p.VC, v)
			p.Rep[v] = mate[v]
		} else {
			p.IS = append(p.IS, v)
		}
	}
	return p, nil
}

// EnumerateNEPartitions visits every partition (IS, VC) whose IS is a
// *maximal* independent set satisfying the NE-expander condition — each
// gives rise to a distinct family of k-matching equilibria (different
// attacker supports). Enumeration stops early when visit returns false.
// Shares enumerateMaximalIndependentSets' n <= 64 limit; exponential in
// the worst case.
//
// Note this intentionally enumerates only maximal independent sets: any
// valid non-maximal IS extends to a maximal one that is also valid
// (growing IS only shrinks VC and enlarges the neighbor pool), so maximal
// sets witness every equilibrium-admitting support family's canonical
// representative. The first visit, if any, decides Corollary 4.11 like
// FindNEPartition does; the tests use it as FindNEPartition's oracle.
func EnumerateNEPartitions(g *graph.Graph, visit func(Partition) bool) error {
	n := g.NumVertices()
	return enumerateMaximalIndependentSets(g, func(is []int) bool {
		vc := graph.SetComplement(is, n)
		rep, _ := IsNEExpander(g, is, vc)
		if rep == nil {
			return true
		}
		return visit(Partition{IS: is, VC: vc, Rep: rep})
	})
}

// CountNEPartitions counts the partitions EnumerateNEPartitions would
// visit. Exponential like the enumeration; allocates its scratch.
func CountNEPartitions(g *graph.Graph) (int, error) {
	count := 0
	err := EnumerateNEPartitions(g, func(Partition) bool { count++; return true })
	return count, err
}

// enumerateMaximalIndependentSets runs Bron–Kerbosch with pivoting on the
// complement graph, invoking visit for every maximal independent set (as a
// sorted vertex list). Enumeration stops early when visit returns false.
// Limited to n <= 64 vertices (bitmask representation); returns ErrTooLarge
// beyond that. O(3^(n/3)) worst case; allocates the complement masks and
// one sorted slice per visited set.
func enumerateMaximalIndependentSets(g *graph.Graph, visit func(is []int) bool) error {
	n := g.NumVertices()
	if n > 64 {
		return fmt.Errorf("%w: n=%d > 64", ErrTooLarge, n)
	}
	if n == 0 {
		visit(nil)
		return nil
	}
	// nonAdj[v] = bitmask of vertices independent of v (complement
	// adjacency, excluding v itself).
	full := ^uint64(0) >> uint(64-n)
	nonAdj := make([]uint64, n)
	for v := 0; v < n; v++ {
		mask := full &^ (1 << uint(v))
		g.EachNeighbor(v, func(u int) { mask &^= 1 << uint(u) })
		nonAdj[v] = mask
	}

	stopped := false
	var expand func(r, p, x uint64)
	expand = func(r, p, x uint64) {
		if stopped {
			return
		}
		if p == 0 && x == 0 {
			if !visit(maskToSet(r)) {
				stopped = true
			}
			return
		}
		// Pivot on the vertex of p|x with the most complement-neighbors in p.
		pivot, best := -1, -1
		for m := p | x; m != 0; m &= m - 1 {
			v := trailing(m)
			if c := popcount(nonAdj[v] & p); c > best {
				best, pivot = c, v
			}
		}
		for m := p &^ nonAdj[pivot]; m != 0; m &= m - 1 {
			v := trailing(m)
			bit := uint64(1) << uint(v)
			expand(r|bit, p&nonAdj[v], x&nonAdj[v])
			p &^= bit
			x |= bit
			if stopped {
				return
			}
		}
	}
	expand(0, full, 0)
	return nil
}

func maskToSet(mask uint64) []int {
	var out []int
	for m := mask; m != 0; m &= m - 1 {
		out = append(out, trailing(m))
	}
	return out
}

func trailing(m uint64) int { return bits.TrailingZeros64(m) }

func popcount(m uint64) int { return bits.OnesCount64(m) }
