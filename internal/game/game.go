// Package game defines the strategic game Π_k(G) of the Tuple model
// (Definition 2.1 of the paper): ν vertex players (attackers) each choose a
// vertex of an undirected graph G, and one tuple player (the defender)
// chooses a tuple of k distinct edges. An attacker earns 1 iff its vertex is
// not an endpoint of the defender's tuple; the defender earns the number of
// attackers it catches.
//
// The package provides pure and mixed strategy profiles and computes
// individual and expected individual profits exactly, using rational
// arithmetic (math/big.Rat) — equilibrium verification in this library never
// relies on floating-point tolerances.
//
// For k = 1 the game coincides with the Edge model of Mavronicolas et al.
// (the paper's reference [7]).
package game

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/defender-game/defender/internal/graph"
)

// Sentinel errors for game construction and profile validation.
var (
	// ErrIsolatedVertex rejects graphs with isolated vertices; the model is
	// defined on graphs without them (an isolated vertex is a free haven).
	ErrIsolatedVertex = errors.New("game: graph has an isolated vertex")
	// ErrBadK rejects tuple sizes outside 1..m.
	ErrBadK = errors.New("game: k must satisfy 1 <= k <= m")
	// ErrBadAttackers rejects non-positive attacker counts.
	ErrBadAttackers = errors.New("game: number of attackers must be positive")
	// ErrInvalidProfile is wrapped by all profile validation failures.
	ErrInvalidProfile = errors.New("game: invalid strategy profile")
)

// Game is an instance Π_k(G) of the Tuple model.
type Game struct {
	g         *graph.Graph
	attackers int // ν
	k         int
}

// New validates the instance parameters and returns the game Π_k(G) with ν
// vertex players. The paper defines the model on connected graphs; this
// implementation relaxes connectivity (everything in the theory only needs
// the absence of isolated vertices) but enforces 1 <= k <= m and ν >= 1.
func New(g *graph.Graph, attackers, k int) (*Game, error) {
	if g == nil || g.NumVertices() == 0 {
		return nil, errors.New("game: nil or empty graph")
	}
	if g.HasIsolatedVertex() {
		return nil, ErrIsolatedVertex
	}
	if attackers < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBadAttackers, attackers)
	}
	if k < 1 || k > g.NumEdges() {
		return nil, fmt.Errorf("%w: k=%d, m=%d", ErrBadK, k, g.NumEdges())
	}
	return &Game{g: g, attackers: attackers, k: k}, nil
}

// Graph returns the underlying graph G.
func (gm *Game) Graph() *graph.Graph { return gm.g }

// Attackers returns ν, the number of vertex players.
func (gm *Game) Attackers() int { return gm.attackers }

// K returns the tuple size k (the power of the defender).
func (gm *Game) K() int { return gm.k }

// String renders a short description of the instance.
func (gm *Game) String() string {
	return fmt.Sprintf("Π_%d(%v) with ν=%d", gm.k, gm.g, gm.attackers)
}

// Tuple is a defender pure strategy: a set of k distinct edges of G,
// stored as sorted edge indices. Tuples are immutable after construction.
//
// The paper treats tuples as ordered sequences, but profits depend only on
// the edge set, so canonicalizing to sorted indices identifies strategies
// that are strategically identical.
type Tuple struct {
	ids []int
}

// NewTuple builds a tuple from explicit edges. All edges must exist in g and
// be pairwise distinct; size is not checked against k here (the Game does
// that during profile validation) so tuples can be built for any model.
func NewTuple(g *graph.Graph, edges []graph.Edge) (Tuple, error) {
	ids := make([]int, 0, len(edges))
	for _, e := range edges {
		id := g.EdgeID(e)
		if id < 0 {
			return Tuple{}, fmt.Errorf("%w: edge %v not in graph", ErrInvalidProfile, e)
		}
		ids = append(ids, id)
	}
	return NewTupleFromIDs(g, ids)
}

// NewTupleFromIDs builds a tuple from edge indices into g's edge list.
func NewTupleFromIDs(g *graph.Graph, ids []int) (Tuple, error) {
	sorted := make([]int, len(ids))
	copy(sorted, ids)
	sort.Ints(sorted)
	for i, id := range sorted {
		if id < 0 || id >= g.NumEdges() {
			return Tuple{}, fmt.Errorf("%w: edge id %d out of range", ErrInvalidProfile, id)
		}
		if i > 0 && sorted[i-1] == id {
			return Tuple{}, fmt.Errorf("%w: duplicate edge id %d in tuple", ErrInvalidProfile, id)
		}
	}
	return Tuple{ids: sorted}, nil
}

// Size returns the number of edges in the tuple.
func (t Tuple) Size() int { return len(t.ids) }

// IDs returns a copy of the sorted edge indices.
func (t Tuple) IDs() []int {
	out := make([]int, len(t.ids))
	copy(out, t.ids)
	return out
}

// Edges resolves the tuple against g's edge list.
func (t Tuple) Edges(g *graph.Graph) []graph.Edge {
	out := make([]graph.Edge, len(t.ids))
	for i, id := range t.ids {
		out[i] = g.EdgeByID(id)
	}
	return out
}

// Vertices returns V(t): the sorted set of distinct endpoints of the
// tuple's edges.
func (t Tuple) Vertices(g *graph.Graph) []int {
	vs := make([]int, 0, 2*len(t.ids))
	for _, id := range t.ids {
		e := g.EdgeByID(id)
		vs = append(vs, e.U, e.V)
	}
	return graph.NormalizeSet(vs)
}

// covers reports whether vertex v is an endpoint of some edge of the tuple.
func (t Tuple) covers(g *graph.Graph, v int) bool {
	for _, id := range t.ids {
		if g.EdgeByID(id).Has(v) {
			return true
		}
	}
	return false
}

// Key returns a canonical string identifying the tuple (for map keys).
func (t Tuple) Key() string {
	var sb strings.Builder
	for i, id := range t.ids {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(id))
	}
	return sb.String()
}

// String renders the tuple as its edge-index list.
func (t Tuple) String() string { return "⟨" + t.Key() + "⟩" }

// PureProfile is a pure configuration: one vertex per attacker plus a
// defender tuple.
type PureProfile struct {
	VertexChoice []int // VertexChoice[i] is the vertex of attacker i
	TupleChoice  Tuple
}

// ValidatePure checks that p is a well-formed pure configuration of gm.
func (gm *Game) ValidatePure(p PureProfile) error {
	if len(p.VertexChoice) != gm.attackers {
		return fmt.Errorf("%w: %d vertex choices for ν=%d attackers", ErrInvalidProfile, len(p.VertexChoice), gm.attackers)
	}
	for i, v := range p.VertexChoice {
		if v < 0 || v >= gm.g.NumVertices() {
			return fmt.Errorf("%w: attacker %d chose invalid vertex %d", ErrInvalidProfile, i, v)
		}
	}
	if p.TupleChoice.Size() != gm.k {
		return fmt.Errorf("%w: tuple has %d edges, want k=%d", ErrInvalidProfile, p.TupleChoice.Size(), gm.k)
	}
	for _, id := range p.TupleChoice.ids {
		if id < 0 || id >= gm.g.NumEdges() {
			return fmt.Errorf("%w: tuple edge id %d out of range", ErrInvalidProfile, id)
		}
	}
	return nil
}

// ProfitVP is IP_i of Definition 2.1: attacker i earns 1 iff its vertex is
// not covered by the defender's tuple.
func (gm *Game) ProfitVP(p PureProfile, i int) int {
	if p.TupleChoice.covers(gm.g, p.VertexChoice[i]) {
		return 0
	}
	return 1
}

// ProfitTP is IP_tp of Definition 2.1: the number of attackers whose vertex
// is covered by the tuple.
func (gm *Game) ProfitTP(p PureProfile) int {
	caught := 0
	for _, v := range p.VertexChoice {
		if p.TupleChoice.covers(gm.g, v) {
			caught++
		}
	}
	return caught
}
