package main

import (
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"

	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/server"
)

// request is one POST /v1/solve of a serve workload together with what a
// correct answer must echo. The server only ever sees body.
type request struct {
	kind  string // generating family and size class, for per-kind tables
	body  []byte
	g6    string // canonical graph6 the server keys on and echoes
	n, m  int
	k, nu int
	// hot is set for serve-hot requests: the primed answer every hit must
	// repeat byte for byte. Both spellings of one graph share it.
	hot *hotEntry
}

type hotEntry struct {
	result []byte
	family string
}

// newRequest encodes g as a request body, spelled as graph6 or, when
// asEdges is set, as n plus an explicit edge list.
func newRequest(kind string, g *graph.Graph, k, nu int, asEdges bool) (*request, error) {
	g6 := graph6(g)
	sr := server.SolveRequest{K: k, Attackers: nu}
	if asEdges {
		sr.N = g.NumVertices()
		for _, e := range g.Edges() {
			sr.Edges = append(sr.Edges, [2]int{e.U, e.V})
		}
	} else {
		sr.Graph6 = g6
	}
	body, err := json.Marshal(sr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", kind, err)
	}
	return &request{kind: kind, body: body, g6: g6, n: g.NumVertices(), m: g.NumEdges(), k: k, nu: nu}, nil
}

// graph6 encodes g (at most 258047 vertices) in the graph6 format with the
// benchmark's own encoder, so the echo check compares the server's key
// against an independent encoding.
func graph6(g *graph.Graph) string {
	n := g.NumVertices()
	bits := make([]bool, n*(n-1)/2) // pair (i, j), i < j, at j(j-1)/2 + i
	for _, e := range g.Edges() {
		i, j := min(e.U, e.V), max(e.U, e.V)
		bits[j*(j-1)/2+i] = true
	}
	out := []byte{byte(n + 63)}
	if n > 62 {
		out = []byte{126, byte(n>>12&63 + 63), byte(n>>6&63 + 63), byte(n&63 + 63)}
	}
	for at := 0; at < len(bits); at += 6 {
		v := 0
		for t := at; t < at+6; t++ {
			v <<= 1
			if t < len(bits) && bits[t] {
				v |= 1
			}
		}
		out = append(out, byte(v+63))
	}
	return string(out)
}

// relabel returns g with its vertices renamed by a random permutation, so
// two draws of one shape are distinct labeled graphs (distinct graph6
// keys, hence distinct cache entries) of identical solver cost.
func relabel(rng *rand.Rand, g *graph.Graph) *graph.Graph {
	perm := rng.Perm(g.NumVertices())
	out := graph.New(g.NumVertices())
	for _, e := range g.Edges() {
		mustAdd(out, perm[e.U], perm[e.V])
	}
	return out
}

func mustAdd(g *graph.Graph, u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(fmt.Sprintf("generator bug: edge (%d,%d): %v", u, v, err))
	}
}

// fillRandom adds uniformly random new edges to g until it has m edges;
// allowed restricts which pairs may join (nil allows every pair).
func fillRandom(rng *rand.Rand, g *graph.Graph, m int, allowed func(u, v int) bool) *graph.Graph {
	n := g.NumVertices()
	for g.NumEdges() < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) || (allowed != nil && !allowed(u, v)) {
			continue
		}
		mustAdd(g, u, v)
	}
	return g
}

func tree(rng *rand.Rand, n int) *graph.Graph {
	return graph.NewGenerator(rng).Tree(n)
}

// caterpillar is a path (the spine, a third of the vertices) with every
// other vertex hung as a leaf on a random spine vertex.
func caterpillar(rng *rand.Rand, n int) *graph.Graph {
	spine := max(2, n/3)
	g := graph.New(n)
	for v := 1; v < spine; v++ {
		mustAdd(g, v-1, v)
	}
	for v := spine; v < n; v++ {
		mustAdd(g, v, rng.Intn(spine))
	}
	return relabel(rng, g)
}

func cycle(rng *rand.Rand, n int) *graph.Graph { return relabel(rng, graph.Cycle(n)) }

func grid(rng *rand.Rand, r, c int) *graph.Graph { return relabel(rng, graph.Grid(r, c)) }

// bipartite is a connected random bipartite graph on sides of a and b
// vertices (even and odd labels before relabeling) with exactly m edges:
// a random spanning tree across the sides plus uniform cross edges.
func bipartite(rng *rand.Rand, a, b, m int) *graph.Graph {
	n := a + b
	g := graph.New(n)
	side := func(v int) int {
		if v < a {
			return 0
		}
		return 1
	}
	placed := [2][]int{{0}, {a}}
	mustAdd(g, 0, a)
	for _, v := range rng.Perm(n) {
		if v == 0 || v == a {
			continue
		}
		opp := placed[1-side(v)]
		mustAdd(g, v, opp[rng.Intn(len(opp))])
		placed[side(v)] = append(placed[side(v)], v)
	}
	fillRandom(rng, g, m, func(u, v int) bool { return side(u) != side(v) })
	return relabel(rng, g)
}

// gnm is a connected random graph with n vertices and exactly m edges: a
// random tree plus uniform extra edges.
func gnm(rng *rand.Rand, n, m int) *graph.Graph {
	return fillRandom(rng, tree(rng, n), m, nil)
}

// matched is a random graph on an even number n of vertices with m edges
// that contains a perfect matching and a triangle, so it is not bipartite
// and the perfect-matching family applies (Claim 4.3 closed form).
func matched(rng *rand.Rand, n, m int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < n; v += 2 {
		mustAdd(g, v, v+1)
	}
	mustAdd(g, 1, 2)
	mustAdd(g, 0, 2)
	fillRandom(rng, g, m, nil)
	return relabel(rng, g)
}

// binom is C(m, k), saturating at limit+1.
func binom(m, k int, limit int64) int64 {
	b := new(big.Int).Binomial(int64(m), int64(k))
	if !b.IsInt64() || b.Int64() > limit {
		return limit + 1
	}
	return b.Int64()
}

// lpTupleLimit mirrors the LP enumeration budget of core.GameValue
// (C(m,k) tuple columns): serve-large draws k so the LP is always
// skipped, and the serve-lp strata stay far below it.
const lpTupleLimit = 20_000

// lpStratum is one (family, size, k) class of serve-lp. Every stratum
// fixes n, m and k, so its tuple space C(m,k) — which sets the LP's cost —
// is the same on every seed; only the labeled graph varies.
type lpStratum struct {
	kind string
	k    int
	make func(rng *rand.Rand) *graph.Graph
}

// lpStrata spans roughly 3 to 70 ms exact LPs: trees, caterpillars and
// grids (bipartite, k-matching family), even cycles, odd cycles
// (lp-minimax family: the LP runs twice), random bipartite graphs, and
// small G(n,m) graphs (perfect-matching or lp-minimax). They are listed
// about cheapest first, as measured, and their number is odd, so the
// median request falls just above the six cheapest strata, among
// cycle-15, grid-2x5 and grid-3x5: shapes fixed up to relabeling, which
// cost the same on every draw. Every stratum whose cost varies with the
// draw lies well below or well above them, so the median reads the same
// strata on every run, not whichever side of a gap noise favours.
var lpStrata = []lpStratum{
	{"bipartite-6x6", 2, func(r *rand.Rand) *graph.Graph { return bipartite(r, 6, 6, 16) }},
	{"tree-16", 2, func(r *rand.Rand) *graph.Graph { return tree(r, 16) }},
	{"tree-12", 3, func(r *rand.Rand) *graph.Graph { return tree(r, 12) }},
	{"gnm-10", 2, func(r *rand.Rand) *graph.Graph { return gnm(r, 10, 18) }},
	{"grid-3x4", 2, func(r *rand.Rand) *graph.Graph { return grid(r, 3, 4) }},
	{"tree-20", 2, func(r *rand.Rand) *graph.Graph { return tree(r, 20) }},
	{"cycle-15", 2, func(r *rand.Rand) *graph.Graph { return cycle(r, 15) }},
	{"grid-2x5", 3, func(r *rand.Rand) *graph.Graph { return grid(r, 2, 5) }},
	{"grid-3x5", 2, func(r *rand.Rand) *graph.Graph { return grid(r, 3, 5) }},
	{"cycle-12", 3, func(r *rand.Rand) *graph.Graph { return cycle(r, 12) }},
	{"cycle-11", 3, func(r *rand.Rand) *graph.Graph { return cycle(r, 11) }},
	{"caterpillar-15", 3, func(r *rand.Rand) *graph.Graph { return caterpillar(r, 15) }},
	{"cycle-13", 3, func(r *rand.Rand) *graph.Graph { return cycle(r, 13) }},
}

// lpStream draws count distinct serve-lp requests. Request i belongs to
// stratum i mod len(lpStrata), so every run sends the same mix.
func lpStream(rng *rand.Rand, count int) ([]*request, error) {
	out := make([]*request, count)
	for i := range out {
		s := lpStrata[i%len(lpStrata)]
		req, err := newRequest(s.kind, s.make(rng), s.k, 1+rng.Intn(3), false)
		if err != nil {
			return nil, err
		}
		out[i] = req
	}
	return out, nil
}

// largeFamilies are the serve-large shapes at the server's 256-vertex cap:
// all admit a k-matching (bipartite) or perfect-matching equilibrium.
var largeFamilies = []struct {
	kind string
	make func(rng *rand.Rand, n int) *graph.Graph
}{
	{"tree", tree},
	{"caterpillar", caterpillar},
	{"cycle", func(r *rand.Rand, n int) *graph.Graph { return cycle(r, n&^1) }},
	{"grid", func(r *rand.Rand, n int) *graph.Graph { return grid(r, 8, n/8) }},
	{"bipartite", func(r *rand.Rand, n int) *graph.Graph { return bipartite(r, n/2, n-n/2, 3*n/2) }},
	{"matched", func(r *rand.Rand, n int) *graph.Graph { return matched(r, n&^1, 3*n) }},
}

// largeStream draws count distinct serve-large requests: n uniform in
// [128, 256], family i mod len(largeFamilies), k in [3, 8]. Every such
// instance has C(m,k) far above lpTupleLimit.
func largeStream(rng *rand.Rand, count int) ([]*request, error) {
	out := make([]*request, count)
	for i := range out {
		f := largeFamilies[i%len(largeFamilies)]
		g := f.make(rng, 128+rng.Intn(129))
		k := 3 + rng.Intn(6)
		if binom(g.NumEdges(), k, lpTupleLimit) <= lpTupleLimit {
			return nil, fmt.Errorf("serve-large: %s instance with m=%d k=%d is within the LP budget", f.kind, g.NumEdges(), k)
		}
		req, err := newRequest("large-"+f.kind, g, k, 1+rng.Intn(3), false)
		if err != nil {
			return nil, err
		}
		out[i] = req
	}
	return out, nil
}

// hotSlots is the serve-hot working set size. Slot r holds a graph at the
// 256-vertex cap when r%4 == 1 and a small graph otherwise, so the
// popularity of big versus small bodies is the same on every seed.
const hotSlots = 64

// hotSet draws the serve-hot working set: per slot the graph6 spelling
// and the n+edges spelling of one graph, sharing one primed answer.
func hotSet(rng *rand.Rand) ([][2]*request, error) {
	out := make([][2]*request, hotSlots)
	for r := range out {
		var (
			kind string
			g    *graph.Graph
			k    int
		)
		if r%4 == 1 {
			n := 200 + 56*(r/4)/(hotSlots/4-1)
			f := largeFamilies[(r/4)%4] // tree, caterpillar, cycle, grid
			kind, g, k = "hot-cap-"+f.kind, f.make(rng, n), 4+2*((r/4)%3)
		} else {
			n := 10 + r*20/hotSlots
			s := [...]func(*rand.Rand, int) *graph.Graph{tree, caterpillar, func(r *rand.Rand, n int) *graph.Graph { return gnm(r, n, n+n/2) }}[r%3]
			kind, g = fmt.Sprintf("hot-small-%d", r%3), s(rng, n)
			// The largest k in 1..3 whose tuple space stays small keeps
			// priming cheap.
			k = 1
			for k < 3 && binom(g.NumEdges(), k+1, 300) <= 300 {
				k++
			}
		}
		nu := 1 + rng.Intn(3)
		entry := &hotEntry{}
		for spelling := range out[r] {
			req, err := newRequest(kind, g, k, nu, spelling == 1)
			if err != nil {
				return nil, err
			}
			req.hot = entry
			out[r][spelling] = req
		}
	}
	return out, nil
}

// hotEdgeShare is the share of serve-hot requests spelled as n+edges.
const hotEdgeShare = 0.25

// hotStream draws count serve-hot requests: slots by a Zipf law (s=1.1)
// over the working set, a fixed share spelled as n+edges. No record of
// the service's traffic exists, so s, the working-set size and the
// edge-list share are stated choices, not measurements: s just above 1
// (the skew commonly reported for cache key popularity) makes the most
// popular slot a quarter of the traffic and the least 0.26 % of it, so
// every slot is still hit many times in a run, and a quarter of edge
// lists keeps that decode path busy without letting it dominate.
func hotStream(rng *rand.Rand, set [][2]*request, count int) []*request {
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(set)-1))
	out := make([]*request, count)
	for i := range out {
		spelling := 0
		if rng.Float64() < hotEdgeShare {
			spelling = 1
		}
		out[i] = set[zipf.Uint64()][spelling]
	}
	return out
}
