package cover

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"github.com/defender-game/defender/internal/graph"
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

// FindNEPartitionBipartite computes a partition for a bipartite graph:
// VC is a König minimum vertex cover and IS its complement. The paper's
// Theorem 5.1 builds on this route. The graph must have no isolated
// vertices (isolated vertices are in every maximum independent set but make
// the game itself ill-defined). O(m sqrt n + |VC| · m); allocates the
// partition and matching scratch. Sparse: the bipartite route of
// FindNEPartitionCSR.
func FindNEPartitionBipartite(g *graph.Graph) (Partition, error) {
	vc, err := MinimumVertexCoverBipartite(g)
	if err != nil {
		return Partition{}, err
	}
	is := graph.SetComplement(vc, g.NumVertices())
	rep, violator := IsNEExpander(g, is, vc)
	if rep == nil {
		// Cannot happen for a König cover of a graph without isolated
		// vertices: each cover vertex is matched, and each matching edge has
		// exactly one endpoint in the cover. Guard anyway.
		return Partition{}, fmt.Errorf("%w: König cover failed expander check, violator %v", ErrPartitionNotFound, violator)
	}
	return Partition{IS: is, VC: vc, Rep: rep}, nil
}

// FindNEPartitionExact decides partition existence exactly by enumerating
// the maximal independent sets of g (if any partition (IS, VC) works, the
// partition obtained by growing IS to a maximal independent set also works,
// because growing IS only shrinks VC and enlarges the neighbor pool).
// It is exponential in the worst case and refuses graphs with more than
// maxVertices vertices (ErrTooLarge); pass 0 for the default limit of 24.
//
// It returns ErrNoPartition when no partition exists — a proof of
// non-existence of k-matching equilibria by Corollary 4.11. Exponential
// (Bron–Kerbosch over maximal independent sets); allocates enumeration
// and SDR scratch per candidate set.
func FindNEPartitionExact(g *graph.Graph, maxVertices int) (Partition, error) {
	if maxVertices <= 0 {
		maxVertices = 24
	}
	n := g.NumVertices()
	if n > maxVertices || n > 64 {
		return Partition{}, fmt.Errorf("%w: n=%d exceeds limit %d", ErrTooLarge, n, maxVertices)
	}
	var found *Partition
	err := EnumerateMaximalIndependentSets(g, func(is []int) bool {
		vc := graph.SetComplement(is, n)
		if rep, _ := IsNEExpander(g, is, vc); rep != nil {
			found = &Partition{IS: is, VC: vc, Rep: rep}
			return false // stop enumeration
		}
		return true
	})
	if err != nil {
		return Partition{}, err
	}
	if found == nil {
		return Partition{}, ErrNoPartition
	}
	return *found, nil
}

// FindNEPartitionGreedy tries several randomized greedy maximal independent
// sets and returns the first one whose complement passes the expander check.
// It cannot prove non-existence: failure is ErrPartitionNotFound.
// O(tries · |VC| · m); allocates candidate orders and per-try scratch.
// Sparse (deterministic-orders-only) counterpart: FindNEPartitionGreedyCSR.
func FindNEPartitionGreedy(g *graph.Graph, tries int, seed int64) (Partition, error) {
	if tries <= 0 {
		tries = 16
	}
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(seed))

	natural := make([]int, n)
	for i := range natural {
		natural[i] = i
	}
	ascending := append([]int(nil), natural...)
	sort.SliceStable(ascending, func(i, j int) bool { return g.Degree(ascending[i]) < g.Degree(ascending[j]) })
	descending := append([]int(nil), natural...)
	sort.SliceStable(descending, func(i, j int) bool { return g.Degree(descending[i]) > g.Degree(descending[j]) })

	// Deterministic candidate orders first (natural order recovers the
	// checkerboard partition on grid-like graphs, ascending degree tends to
	// maximize |IS|), then random shuffles.
	order := natural
	deterministic := [][]int{natural, ascending, descending}
	for attempt := 0; attempt < tries; attempt++ {
		if attempt < len(deterministic) {
			order = deterministic[attempt]
		} else {
			rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		is := GreedyIndependentSet(g, order)
		vc := graph.SetComplement(is, n)
		if rep, _ := IsNEExpander(g, is, vc); rep != nil {
			return Partition{IS: is, VC: vc, Rep: rep}, nil
		}
	}
	return Partition{}, ErrPartitionNotFound
}

// FindNEPartition is the combined search used by the solvers: bipartite
// graphs take the König route (polynomial, always succeeds); otherwise small
// graphs are decided exactly and large graphs heuristically. Cost is the
// chosen route's (polynomial bipartite, exponential exact on n <= 24,
// else the greedy heuristic). Sparse counterpart: FindNEPartitionCSR,
// routing documented in SCALING.md "Routing".
func FindNEPartition(g *graph.Graph) (Partition, error) {
	if g.HasIsolatedVertex() {
		return Partition{}, ErrIsolatedVertex
	}
	if g.IsBipartite() {
		return FindNEPartitionBipartite(g)
	}
	if p, err := FindNEPartitionExact(g, 0); !errors.Is(err, ErrTooLarge) {
		return p, err
	}
	return FindNEPartitionGreedy(g, 32, 1)
}

// EnumerateNEPartitions visits every partition (IS, VC) whose IS is a
// *maximal* independent set satisfying the NE-expander condition — each
// gives rise to a distinct family of k-matching equilibria (different
// attacker supports). Enumeration stops early when visit returns false.
// Shares EnumerateMaximalIndependentSets' n <= 64 limit; exponential in
// the worst case.
//
// Note this intentionally enumerates only maximal independent sets: any
// valid non-maximal IS extends to a maximal one that is also valid (see
// FindNEPartitionExact), so maximal sets witness every equilibrium-
// admitting support family's canonical representative.
func EnumerateNEPartitions(g *graph.Graph, visit func(Partition) bool) error {
	n := g.NumVertices()
	return EnumerateMaximalIndependentSets(g, func(is []int) bool {
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

// EnumerateMaximalIndependentSets runs Bron–Kerbosch with pivoting on the
// complement graph, invoking visit for every maximal independent set (as a
// sorted vertex list). Enumeration stops early when visit returns false.
// Limited to n <= 64 vertices (bitmask representation); returns ErrTooLarge
// beyond that. O(3^(n/3)) worst case; allocates the complement masks and
// one sorted slice per visited set.
func EnumerateMaximalIndependentSets(g *graph.Graph, visit func(is []int) bool) error {
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
