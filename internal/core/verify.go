package core

import (
	"errors"
	"fmt"
	"math/big"
	"sort"

	"github.com/defender-game/defender/internal/game"
	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/matching"
	"github.com/defender-game/defender/internal/rat"
)

// Sentinel errors of the verifier.
var (
	// ErrNotEquilibrium is wrapped by every failed equilibrium condition.
	ErrNotEquilibrium = errors.New("core: profile is not a Nash equilibrium")
	// ErrCannotVerify is returned when the exact maximum tuple load cannot
	// be computed for the instance (no structural shortcut applies and the
	// tuple space is too large to enumerate). It does NOT mean the profile
	// is not an equilibrium.
	ErrCannotVerify = errors.New("core: cannot verify exactly: maximum tuple load out of reach")
)

// exhaustiveTupleLimit caps the number of k-subsets the exhaustive maximum
// tuple load enumerator is willing to visit.
const exhaustiveTupleLimit = 2_000_000

// VerifyNE checks exactly — in rational arithmetic, no tolerances — that mp
// is a mixed Nash equilibrium of gm, using the support characterization of
// mixed equilibria (every pure strategy in a player's support must be a best
// response):
//
//   - every vertex in every attacker's support attains the minimum hit
//     probability min_v P(Hit(v)) (condition 2(a) of Theorem 3.4), and
//   - every tuple in the defender's support attains the maximum expected
//     load max_{t ∈ E^k} m(t) (condition 3(a) of Theorem 3.4).
//
// The maximum over the (combinatorially large) tuple space is computed by
// MaxTupleLoad; see its documentation for the cases handled exactly.
func VerifyNE(gm *game.Game, mp game.MixedProfile) error {
	if err := gm.Validate(mp); err != nil {
		return err
	}
	g := gm.Graph()

	// Attacker side: support vertices must minimize the hit probability.
	hit := gm.HitProbabilities(mp)
	minHit := new(big.Rat).Set(hit[0])
	for _, h := range hit[1:] {
		if h.Cmp(minHit) < 0 {
			minHit.Set(h)
		}
	}
	for i, s := range mp.VP {
		for _, v := range s.Support() {
			if hit[v].Cmp(minHit) != 0 {
				return fmt.Errorf("%w: attacker %d plays vertex %d with hit probability %v > min %v",
					ErrNotEquilibrium, i, v, hit[v], minHit)
			}
		}
	}

	// Defender side: support tuples must maximize the expected load.
	loads := gm.VertexLoads(mp)
	maxLoad, witness, err := MaxTupleLoad(g, gm.K(), loads)
	if err != nil {
		return err
	}
	for _, t := range mp.TP.Support() {
		if l := gm.TupleLoad(loads, t); l.Cmp(maxLoad) != 0 {
			return fmt.Errorf("%w: defender plays tuple %v with load %v < max %v (witness %v)",
				ErrNotEquilibrium, t, l, maxLoad, witness)
		}
	}
	return nil
}

// VerifyCharacterization checks all conditions 1–3 of Theorem 3.4. For
// valid profiles this is equivalent to VerifyNE (that is the theorem); the
// experiments assert the equivalence empirically.
func VerifyCharacterization(gm *game.Game, mp game.MixedProfile) error {
	if err := VerifyNE(gm, mp); err != nil { // conditions 2(a) and 3(a)
		return err
	}
	if err := checkCoverConditions(gm.Graph(), mp.SupportUnionVP(), mp.TP.SupportEdges()); err != nil { // condition 1
		return fmt.Errorf("%w: %v", ErrNotEquilibrium, err)
	}
	// Condition 3(b): the attacker mass concentrates on V(D(tp)).
	loads := gm.VertexLoads(mp)
	onSupport := new(big.Rat)
	seen := make(map[int]bool)
	for _, t := range mp.TP.Support() {
		for _, v := range t.Vertices(gm.Graph()) {
			if !seen[v] {
				seen[v] = true
				onSupport.Add(onSupport, loads[v])
			}
		}
	}
	nu := new(big.Rat).SetInt64(int64(gm.Attackers()))
	if onSupport.Cmp(nu) != 0 {
		return fmt.Errorf("%w: attacker mass on V(D(tp)) is %v, want ν=%v", ErrNotEquilibrium, onSupport, nu)
	}
	return nil
}

// MaxTupleLoad computes max over all tuples t of k distinct edges of
// m(t) = Σ_{v ∈ V(t)} load(v), together with a witness tuple attaining it.
//
// The general problem is weighted maximum coverage with sets of size two
// (NP-hard for arbitrary loads and k), but every case arising from the
// paper's equilibria is polynomial and handled exactly:
//
//  1. loads supported on an independent set (every k-matching equilibrium):
//     each edge covers at most one loaded vertex, so the maximum is the sum
//     of the min(k, #loaded) largest loads;
//  2. equal positive load on every vertex (perfect-matching and
//     regular-graph equilibria): the maximum is load · min(n, k + min(k, μ))
//     where μ is the maximum matching number, by a component-counting
//     argument, achieved by a maximum matching extended greedily;
//  3. any instance whose C(m, k) tuple space is small is enumerated
//     exhaustively (also the test oracle for cases 1 and 2).
//
// If no case applies, ErrCannotVerify is returned.
func MaxTupleLoad(g *graph.Graph, k int, loads []*big.Rat) (*big.Rat, game.Tuple, error) {
	if k < 1 || k > g.NumEdges() {
		return nil, game.Tuple{}, fmt.Errorf("core: max tuple load: invalid k=%d for m=%d", k, g.NumEdges())
	}
	var positive []int
	for v, l := range loads {
		switch {
		case l == nil:
			return nil, game.Tuple{}, fmt.Errorf("core: max tuple load: nil load for vertex %d", v)
		case l.Sign() < 0:
			return nil, game.Tuple{}, fmt.Errorf("core: max tuple load: negative load %v on vertex %d", l, v)
		case l.Sign() > 0:
			positive = append(positive, v)
		}
	}

	if independentInGraph(g, positive) {
		return maxLoadIndependent(g, k, loads, positive)
	}
	if uniform, c := uniformLoads(g, loads); uniform {
		return maxLoadUniform(g, k, c)
	}
	if combinationsWithin(g.NumEdges(), k, exhaustiveTupleLimit) {
		return maxLoadExhaustive(g, k, loads)
	}
	// General loads on a larger instance: budgeted branch and bound —
	// exact when it completes, ErrCannotVerify when the budget runs out.
	if value, witness, ok := maxLoadBranchBound(g, k, loads); ok {
		return value, witness, nil
	}
	return nil, game.Tuple{}, fmt.Errorf("%w: m=%d, k=%d", ErrCannotVerify, g.NumEdges(), k)
}

// independentInGraph reports whether no edge of g joins two of the vertices.
func independentInGraph(g *graph.Graph, vs []int) bool {
	member := make(map[int]bool, len(vs))
	for _, v := range vs {
		member[v] = true
	}
	for _, e := range g.Edges() {
		if member[e.U] && member[e.V] {
			return false
		}
	}
	return true
}

// maxLoadIndependent handles case 1: loaded vertices pairwise non-adjacent.
// Each edge then covers at most one loaded vertex, so any k edges collect at
// most the k largest loads among coverable (non-isolated) loaded vertices —
// and exactly that is achievable because edges incident to distinct loaded
// vertices are automatically distinct.
func maxLoadIndependent(g *graph.Graph, k int, loads []*big.Rat, positive []int) (*big.Rat, game.Tuple, error) {
	// Loaded isolated vertices can never be covered: drop them up front.
	sorted := make([]int, 0, len(positive))
	for _, v := range positive {
		if g.Degree(v) > 0 {
			sorted = append(sorted, v)
		}
	}
	// Sort coverable loaded vertices by decreasing load.
	sort.SliceStable(sorted, func(i, j int) bool { return loads[sorted[i]].Cmp(loads[sorted[j]]) > 0 })
	take := k
	if len(sorted) < take {
		take = len(sorted)
	}

	sum := new(big.Rat)
	usedEdges := make(map[int]bool, k)
	ids := make([]int, 0, k)
	for _, v := range sorted[:take] {
		id := g.EdgeID(graph.NewEdge(v, g.Neighbors(v)[0]))
		sum.Add(sum, loads[v])
		usedEdges[id] = true
		ids = append(ids, id)
	}
	// Pad with arbitrary unused edges. Padding happens only when every
	// coverable loaded vertex is already covered (take == len(sorted) < k),
	// so padding edges contribute zero additional load.
	for id := 0; id < g.NumEdges() && len(ids) < k; id++ {
		if !usedEdges[id] {
			usedEdges[id] = true
			ids = append(ids, id)
		}
	}
	t, err := game.NewTupleFromIDs(g, ids)
	if err != nil {
		return nil, game.Tuple{}, err
	}
	return sum, t, nil
}

// uniformLoads reports whether every vertex carries the same positive load.
// The returned rat is a defensive copy, never an alias of the caller's
// loads slice.
func uniformLoads(g *graph.Graph, loads []*big.Rat) (bool, *big.Rat) {
	if g.NumVertices() == 0 || loads[0].Sign() <= 0 {
		return false, nil
	}
	for _, l := range loads[1:] {
		if l.Cmp(loads[0]) != 0 {
			return false, nil
		}
	}
	return true, new(big.Rat).Set(loads[0])
}

// maxLoadUniform handles case 2: every vertex has load c. The maximum
// number of vertices coverable by k edges is min(n, k + min(k, μ)): a
// chosen subgraph with k edges and p components covers at most k + p
// vertices, p <= min(k, μ); achieved by extending a maximum matching one
// fresh vertex at a time.
func maxLoadUniform(g *graph.Graph, k int, c *big.Rat) (*big.Rat, game.Tuple, error) {
	mate := matching.Maximum(g)
	matchEdges := matching.Edges(mate)
	mu := len(matchEdges)

	covered := make([]bool, g.NumVertices())
	var ids []int
	useMatching := mu
	if k < useMatching {
		useMatching = k
	}
	for _, e := range matchEdges[:useMatching] {
		ids = append(ids, g.EdgeID(e))
		covered[e.U], covered[e.V] = true, true
	}
	// Extend: every uncovered vertex has only covered neighbors (a maximum
	// matching is maximal), so each extension edge adds exactly one vertex.
	if len(ids) < k {
		for v := 0; v < g.NumVertices() && len(ids) < k; v++ {
			if covered[v] {
				continue
			}
			nbrs := g.Neighbors(v)
			if len(nbrs) == 0 {
				continue
			}
			ids = append(ids, g.EdgeID(graph.NewEdge(v, nbrs[0])))
			covered[v] = true
		}
	}
	// Pad with arbitrary unused edges once everything reachable is covered.
	used := make(map[int]bool, len(ids))
	for _, id := range ids {
		used[id] = true
	}
	for id := 0; id < g.NumEdges() && len(ids) < k; id++ {
		if !used[id] {
			used[id] = true
			ids = append(ids, id)
		}
	}
	t, err := game.NewTupleFromIDs(g, ids)
	if err != nil {
		return nil, game.Tuple{}, err
	}
	count := 0
	for _, cov := range covered {
		if cov {
			count++
		}
	}
	bound := k + min(k, mu)
	if bound > g.NumVertices() {
		bound = g.NumVertices()
	}
	if count != bound {
		// The component-counting bound was not attained constructively
		// (possible only in exotic disconnected corner cases); fall back.
		if combinationsWithin(g.NumEdges(), k, exhaustiveTupleLimit) {
			loads := make([]*big.Rat, g.NumVertices())
			for i := range loads {
				loads[i] = new(big.Rat).Set(c) // lint:invariant(ratraw): one independently-mutated big.Rat per vertex; no aliasing across entries
			}
			return maxLoadExhaustive(g, k, loads)
		}
		return nil, game.Tuple{}, fmt.Errorf("%w: uniform-load construction reached %d of %d vertices", ErrCannotVerify, count, bound)
	}
	value := new(big.Rat).Mul(c, new(big.Rat).SetInt64(int64(count)))
	return value, t, nil
}

// maxLoadExhaustive handles case 3: enumerate every k-subset of edges.
// The inner loop runs on internal/rat so the C(m, k) iterations stay
// allocation-free for word-sized loads.
func maxLoadExhaustive(g *graph.Graph, k int, loads []*big.Rat) (*big.Rat, game.Tuple, error) {
	m := g.NumEdges()
	rloads := rat.FromBig(loads)
	var best rat.Rat
	bestIDs := make([]int, 0, k)
	first := true

	idx := make([]int, k)
	covered := make([]int, g.NumVertices()) // vertex -> multiplicity in current selection
	var current rat.Rat

	var recurse func(pos, next int)
	recurse = func(pos, next int) {
		if pos == k {
			if first || current.Cmp(&best) > 0 {
				best.Set(&current)
				bestIDs = append(bestIDs[:0], idx...)
				first = false
			}
			return
		}
		for id := next; id <= m-(k-pos); id++ {
			e := g.EdgeByID(id)
			idx[pos] = id
			addedU := covered[e.U] == 0
			addedV := covered[e.V] == 0
			covered[e.U]++
			covered[e.V]++
			if addedU {
				current.Add(&current, &rloads[e.U])
			}
			if addedV {
				current.Add(&current, &rloads[e.V])
			}
			recurse(pos+1, id+1)
			covered[e.U]--
			covered[e.V]--
			if addedU {
				current.Sub(&current, &rloads[e.U])
			}
			if addedV {
				current.Sub(&current, &rloads[e.V])
			}
		}
	}
	recurse(0, 0)
	t, err := game.NewTupleFromIDs(g, bestIDs)
	if err != nil {
		return nil, game.Tuple{}, err
	}
	return best.Big(), t, nil
}

// tupleLoadOf computes m(t) for a tuple against explicit loads.
func tupleLoadOf(g *graph.Graph, loads []*big.Rat, t game.Tuple) *big.Rat {
	sum := new(big.Rat)
	for _, v := range t.Vertices(g) {
		sum.Add(sum, loads[v])
	}
	return sum
}

// combinationsWithin reports whether C(m, k) <= limit without overflowing.
func combinationsWithin(m, k, limit int) bool {
	if k < 0 || k > m {
		return false
	}
	if k > m-k {
		k = m - k
	}
	c := 1
	for i := 1; i <= k; i++ {
		c = c * (m - k + i) / i
		if c > limit {
			return false
		}
	}
	return true
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
