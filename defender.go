// Package defender is a complete implementation of the network-security
// game of "The Power of the Defender" (Gelastou, Mavronicolas, Papadopoulou,
// Philippou, Spirakis; ICDCS 2006).
//
// The Tuple model Π_k(G) is played on an undirected graph G: ν attackers
// (vertex players) each choose a vertex, and one defender (the tuple
// player) chooses a tuple of k distinct edges. An attacker is caught iff
// its vertex is an endpoint of the defender's tuple; the defender's profit
// is the number of attackers caught. k = 1 is the Edge model of
// Mavronicolas et al. (ISAAC 2005).
//
// The package exposes:
//
//   - pure Nash equilibria: existence (iff G has an edge cover of size k,
//     Theorem 3.1), construction and verification;
//   - k-matching mixed Nash equilibria: Algorithm A_tuple (Theorems
//     4.12–4.13), the characterization of graphs admitting them (Corollary
//     4.11), and the polynomial-time reductions to and from Edge-model
//     matching equilibria (Theorem 4.5);
//   - an exact equilibrium verifier (Theorem 3.4) working in rational
//     arithmetic — no floating-point tolerances;
//   - structural extensions (perfect-matching and regular-graph equilibria,
//     the Path model) and a Monte-Carlo playout simulator.
//
// Quick start:
//
//	g := defender.GridGraph(3, 4)
//	ne, err := defender.Solve(g, 10 /* attackers */, 3 /* k */)
//	if err != nil { ... }
//	fmt.Println("defender gain:", ne.DefenderGain()) // exactly 3·10/|IS|
//
// The heavy lifting lives in internal packages (graph, matching, cover,
// game, core, sim); this package re-exports the stable API surface.
package defender

import (
	"io"

	"github.com/defender-game/defender/internal/core"
	"github.com/defender-game/defender/internal/cover"
	"github.com/defender-game/defender/internal/game"
	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/sim"
)

// Core model types, aliased from the internal packages so that callers can
// name every value the API returns.
type (
	// Graph is a simple undirected graph on vertices 0..n−1.
	Graph = graph.Graph
	// Edge is an undirected edge with normalized endpoints (U < V).
	Edge = graph.Edge
	// Game is an instance Π_k(G) with ν attackers and defender power k.
	Game = game.Game
	// Tuple is a defender pure strategy: k distinct edges of G.
	Tuple = game.Tuple
	// PureProfile is a pure configuration of the game.
	PureProfile = game.PureProfile
	// MixedProfile is a mixed configuration: one vertex distribution per
	// attacker plus the defender's tuple distribution, all exact rationals.
	MixedProfile = game.MixedProfile
	// VertexStrategy is an attacker's mixed strategy.
	VertexStrategy = game.VertexStrategy
	// TupleStrategy is the defender's mixed strategy.
	TupleStrategy = game.TupleStrategy
	// EdgeEquilibrium is a structured mixed NE of the Edge model Π_1(G).
	EdgeEquilibrium = core.EdgeEquilibrium
	// TupleEquilibrium is a structured mixed NE of the Tuple model Π_k(G).
	TupleEquilibrium = core.TupleEquilibrium
	// Partition is an (IS, VC) split witnessing the Corollary 4.11
	// characterization of graphs admitting k-matching equilibria.
	Partition = cover.Partition
	// SimResult is the outcome of a Monte-Carlo playout run.
	SimResult = sim.Result
)

// Sentinel errors surfaced by the API.
var (
	// ErrNoMatchingNE: the graph provably admits no (k-)matching NE.
	ErrNoMatchingNE = core.ErrNoMatchingNE
	// ErrNoPureNE: no pure NE exists for the requested k.
	ErrNoPureNE = core.ErrNoPureNE
	// ErrKTooLarge: k exceeds the equilibrium's edge support size |IS|.
	ErrKTooLarge = core.ErrKTooLarge
	// ErrNotEquilibrium: a verification failed with a concrete deviation.
	ErrNotEquilibrium = core.ErrNotEquilibrium
	// ErrCannotVerify: exact verification is out of reach for the instance.
	ErrCannotVerify = core.ErrCannotVerify
	// ErrNoPartition: no independent-set/expander partition exists.
	ErrNoPartition = cover.ErrNoPartition
	// ErrNotBipartite: a bipartite-only routine met an odd cycle.
	ErrNotBipartite = graph.ErrNotBipartite
	// ErrIsolatedVertex: the model forbids isolated vertices.
	ErrIsolatedVertex = game.ErrIsolatedVertex
)

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// ParseGraph reads a graph in the line-oriented edge-list format
// ("n <count>" header optional, one "u v" pair per line, # comments).
func ParseGraph(r io.Reader) (*Graph, error) { return graph.Parse(r) }

// ParseGraphString parses an edge list from a string.
func ParseGraphString(s string) (*Graph, error) { return graph.ParseString(s) }

// Graph generators for the families used throughout the paper's theory and
// this library's experiments.
var (
	// PathGraph returns the path P_n.
	PathGraph = graph.Path
	// CycleGraph returns the cycle C_n.
	CycleGraph = graph.Cycle
	// CompleteGraph returns the clique K_n.
	CompleteGraph = graph.Complete
	// CompleteBipartiteGraph returns K_{a,b}.
	CompleteBipartiteGraph = graph.CompleteBipartite
	// StarGraph returns the star K_{1,n−1}.
	StarGraph = graph.Star
	// GridGraph returns the r×c grid.
	GridGraph = graph.Grid
	// HypercubeGraph returns the d-dimensional hypercube.
	HypercubeGraph = graph.Hypercube
	// PetersenGraph returns the Petersen graph.
	PetersenGraph = graph.Petersen
	// RandomGNP returns an Erdős–Rényi G(n, p) graph.
	RandomGNP = graph.RandomGNP
	// RandomBipartiteGraph returns a random bipartite graph without
	// isolated vertices.
	RandomBipartiteGraph = graph.RandomBipartite
	// RandomTreeGraph returns a uniform random labelled tree.
	RandomTreeGraph = graph.RandomTree
	// RandomConnectedGraph returns a random connected graph (tree backbone
	// plus G(n,p) edges).
	RandomConnectedGraph = graph.RandomConnected
)

// NewGame validates and constructs the instance Π_k(G) with ν attackers.
func NewGame(g *Graph, attackers, k int) (*Game, error) {
	return game.New(g, attackers, k)
}

// Solve computes a k-matching mixed Nash equilibrium of Π_k(G) end to end:
// it decides the (IS, VC) partition exactly (see FindPartition) and runs
// Algorithm A_tuple. For bipartite graphs this is the Theorem 5.1
// pipeline; the blossom matching it starts from makes it O(n³) here,
// and the max{O(k·n), O(m√n)} bound belongs to the sparse CSR core.
func Solve(g *Graph, attackers, k int) (TupleEquilibrium, error) {
	return core.SolveTupleModel(g, attackers, k)
}

// SolveEdge computes a matching mixed Nash equilibrium of the Edge model
// Π_1(G) via Algorithm A.
func SolveEdge(g *Graph, attackers int) (EdgeEquilibrium, error) {
	return core.SolveEdgeModel(g, attackers)
}

// SolveWithPartition runs Algorithm A_tuple on a caller-supplied partition.
func SolveWithPartition(g *Graph, attackers, k int, p Partition) (TupleEquilibrium, error) {
	return core.AlgorithmATuple(g, attackers, k, p)
}

// FindPartition decides whether G has an independent-set/expander
// partition — the Corollary 4.11 certificate that k-matching equilibria
// exist — and returns it, or ErrNoPartition when none exists. The decision
// is exact on every graph and reads one blossom maximum matching (O(n³)):
// König's vertex cover for bipartite graphs, a König–Egerváry 2-SAT check
// otherwise.
func FindPartition(g *Graph) (Partition, error) {
	return cover.FindNEPartition(g)
}

// Lift transforms a matching NE of Π_1(G) into a k-matching NE of Π_k(G)
// (Lemma 4.8: cyclic k-windows over the labeled edge support).
func Lift(ne EdgeEquilibrium, k int) (TupleEquilibrium, error) {
	return core.LiftToTupleModel(ne, k)
}

// Reduce transforms a k-matching NE of Π_k(G) into a matching NE of Π_1(G)
// (Lemma 4.6: play the support edges individually).
func Reduce(ne TupleEquilibrium) (EdgeEquilibrium, error) {
	return core.ReduceToEdgeModel(ne)
}

// HasPureNE decides pure-equilibrium existence (Theorem 3.1): Π_k(G) has a
// pure NE iff G has an edge cover of size k.
func HasPureNE(g *Graph, k int) (bool, error) { return core.HasPureNE(g, k) }

// BuildPureNE constructs a pure NE (defender on an edge cover of size k).
func BuildPureNE(g *Graph, attackers, k int) (*Game, PureProfile, error) {
	return core.BuildPureNE(g, attackers, k)
}

// IsPureNE verifies a pure profile by exhaustive unilateral deviations
// (exact; may return ErrCannotVerify on huge unstructured instances).
func IsPureNE(gm *Game, p PureProfile) (bool, error) { return core.IsPureNE(gm, p) }

// VerifyNE checks exactly that a mixed profile is a Nash equilibrium,
// using the support characterization of Theorem 3.4.
func VerifyNE(gm *Game, mp MixedProfile) error { return core.VerifyNE(gm, mp) }

// VerifyCharacterization checks all conditions 1–3 of Theorem 3.4.
func VerifyCharacterization(gm *Game, mp MixedProfile) error {
	return core.VerifyCharacterization(gm, mp)
}

// PerfectMatchingNE builds the structural NE for graphs with perfect
// matchings: attackers uniform on V, defender uniform on the cyclic
// k-windows of a perfect matching; gain 2kν/n.
func PerfectMatchingNE(g *Graph, attackers, k int) (TupleEquilibrium, error) {
	return core.PerfectMatchingNE(g, attackers, k)
}

// RegularGraphEdgeNE builds the Edge-model NE for regular graphs:
// attackers uniform on V, defender uniform on all edges; gain 2ν/n.
func RegularGraphEdgeNE(g *Graph, attackers int) (EdgeEquilibrium, error) {
	return core.RegularGraphEdgeNE(g, attackers)
}

// HasPurePathNE decides pure-equilibrium existence in the Path model
// (defender cleans a simple path of k edges): true iff k = n−1 and G has a
// Hamiltonian path, returned as the witness.
func HasPurePathNE(g *Graph, k int) (bool, []int, error) {
	return core.HasPurePathNE(g, k)
}

// Simulate plays a mixed configuration for the given number of rounds and
// returns empirical statistics alongside the exact expectation.
func Simulate(gm *Game, mp MixedProfile, rounds int, seed int64) (SimResult, error) {
	return sim.Run(gm, mp, rounds, seed)
}

// MinimumEdgeCover computes a minimum edge cover of g (Gallai / blossom) —
// the certificate behind pure-equilibrium existence (Corollary 3.2).
func MinimumEdgeCover(g *Graph) ([]Edge, error) { return cover.MinimumEdgeCover(g) }

// MinimumVertexCoverBipartite computes a minimum vertex cover of a
// bipartite graph via König's theorem over the blossom maximum matching.
func MinimumVertexCoverBipartite(g *Graph) ([]int, error) {
	return cover.MinimumVertexCoverBipartite(g)
}
