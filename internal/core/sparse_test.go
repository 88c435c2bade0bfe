package core

import (
	"errors"
	"fmt"
	"math/big"
	"testing"

	"github.com/defender-game/defender/internal/cover"
	"github.com/defender-game/defender/internal/game"
	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/matching"
	"github.com/defender-game/defender/internal/obs"
)

// sparseCorpus returns small instances the sparse pipeline is
// differentially replayed on through the dense game machinery.
func sparseCorpus() map[string]*graph.CSR {
	gen := graph.NewSeededGenerator(41)
	corpus := map[string]*graph.CSR{
		"path6":  graph.FromGraph(graph.Path(6)),
		"k23":    graph.FromGraph(graph.CompleteBipartite(2, 3)),
		"grid34": graph.FromGraph(graph.Grid(3, 4)),
		"tree":   graph.FromGraph(gen.Tree(14)),
		"baBip":  gen.BarabasiAlbertBipartiteCSR(16, 2),
	}
	chorded := graph.Cycle(4)
	if err := chorded.AddEdge(1, 3); err != nil {
		panic(err)
	}
	corpus["chordedC4"] = graph.FromGraph(chorded)
	return corpus
}

// TestSolveKMatchingCSRDifferential is the cross-check of the sparse
// pipeline: every sparse solve must pass its own rat-domain audit
// (VerifyKMatchingCSR), then replay through the dense game machinery
// (BuildKMatchingNE + VerifyCharacterization) with identical exact
// defender gain and hit probability.
func TestSolveKMatchingCSRDifferential(t *testing.T) {
	for name, c := range sparseCorpus() {
		for _, k := range []int{1, 2, 3} {
			ne, err := SolveKMatchingCSR(c, 5, k)
			if errors.Is(err, ErrKTooLarge) {
				continue
			}
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			if err := VerifyKMatchingCSR(ne); err != nil {
				t.Fatalf("%s k=%d: sparse audit: %v", name, k, err)
			}
			dense, err := ne.ToTupleEquilibrium()
			if err != nil {
				t.Fatalf("%s k=%d: bridge: %v", name, k, err)
			}
			if err := VerifyCharacterization(dense.Game, dense.Profile); err != nil {
				t.Fatalf("%s k=%d: dense verifier rejects sparse NE: %v", name, k, err)
			}
			if got, want := ne.DefenderGain(), dense.DefenderGain(); got.Cmp(want) != 0 {
				t.Errorf("%s k=%d: sparse gain %v, dense %v", name, k, got, want)
			}
			if got, want := ne.HitProbability(), dense.HitProbability(); got.Cmp(want) != 0 {
				t.Errorf("%s k=%d: sparse hit %v, dense %v", name, k, got, want)
			}
		}
	}
}

func TestSolveKMatchingCSRKTooLarge(t *testing.T) {
	// P2 has |IS| = 1: any k >= 2 must be refused.
	c := graph.FromGraph(graph.Path(2))
	if _, err := SolveKMatchingCSR(c, 3, 2); !errors.Is(err, ErrKTooLarge) {
		t.Errorf("got %v, want ErrKTooLarge", err)
	}
}

func TestSolveKMatchingCSRNoPartition(t *testing.T) {
	// C5 admits no k-matching NE; the sparse heuristic gives up rather
	// than fabricating one.
	c := graph.FromGraph(graph.Cycle(5))
	if _, err := SolveKMatchingCSR(c, 3, 1); !errors.Is(err, cover.ErrPartitionNotFound) {
		t.Errorf("got %v, want ErrPartitionNotFound", err)
	}
}

// TestVerifyKMatchingCSRMutations corrupts a valid sparse equilibrium one
// invariant at a time; the verifier must reject every mutant.
func TestVerifyKMatchingCSRMutations(t *testing.T) {
	base := func() *SparseEquilibrium {
		ne, err := SolveKMatchingCSR(graph.FromGraph(graph.Grid(3, 4)), 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		return ne
	}
	mutations := map[string]func(*SparseEquilibrium){
		"no-attackers": func(ne *SparseEquilibrium) { ne.Attackers = 0 },
		"k-mismatch":   func(ne *SparseEquilibrium) { ne.K = 1 },
		"drop-tuple":   func(ne *SparseEquilibrium) { ne.Tuples = ne.Tuples[1:] },
		"repeat-edge-in-tuple": func(ne *SparseEquilibrium) {
			ne.Tuples[0] = []int32{ne.Tuples[0][0], ne.Tuples[0][0]}
		},
		"shrink-support": func(ne *SparseEquilibrium) { ne.VPSupport = ne.VPSupport[1:] },
		"support-not-sorted": func(ne *SparseEquilibrium) {
			ne.VPSupport[0], ne.VPSupport[1] = ne.VPSupport[1], ne.VPSupport[0]
		},
		"fake-edge": func(ne *SparseEquilibrium) {
			ne.EdgeU[0], ne.EdgeV[0] = ne.VPSupport[0], ne.VPSupport[1]
		},
		"drop-edge": func(ne *SparseEquilibrium) {
			ne.EdgeU = ne.EdgeU[1:]
			ne.EdgeV = ne.EdgeV[1:]
		},
	}
	if err := VerifyKMatchingCSR(base()); err != nil {
		t.Fatalf("unmutated equilibrium rejected: %v", err)
	}
	for name, mutate := range mutations {
		ne := base()
		mutate(ne)
		if err := VerifyKMatchingCSR(ne); err == nil {
			t.Errorf("%s: verifier accepted the mutant", name)
		} else if !errors.Is(err, ErrNotEquilibrium) {
			t.Errorf("%s: error %v does not wrap ErrNotEquilibrium", name, err)
		}
	}
}

// TestSolveKMatchingCSRMediumScale solves and verifies at a size where
// the dense path is already impractical, as a fast regression guard for
// the sparse-1m benchmark.
func TestSolveKMatchingCSRMediumScale(t *testing.T) {
	c := graph.NewSeededGenerator(43).BarabasiAlbertBipartiteCSR(50_000, 3)
	ne, err := SolveKMatchingCSR(c, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyKMatchingCSR(ne); err != nil {
		t.Fatal(err)
	}
	if len(ne.VPSupport) != len(ne.EdgeU) {
		t.Fatalf("|IS|=%d != |E(D(tp))|=%d", len(ne.VPSupport), len(ne.EdgeU))
	}
	// Closed forms of the paper: gain k·ν/|IS|, hit k/|E'|.
	if gain := ne.DefenderGain(); gain.Sign() <= 0 {
		t.Fatalf("non-positive defender gain %v", gain)
	}
	if ne.Multiplicity() < 1 {
		t.Fatalf("multiplicity %d < 1", ne.Multiplicity())
	}
}

// TestSolveKMatchingCSRAfterRho pins the one-matching solve: once ρ(G)'s
// matching is in hand (matching.MaximumBipartiteCSR, as the sparse-1m
// benchmark computes it first), the solve on the same CSR colors nothing and
// runs no Hopcroft–Karp phase, and its attacker support still has
// n − ν(G) = ρ(G) vertices.
func TestSolveKMatchingCSRAfterRho(t *testing.T) {
	reg := obs.Default()
	defer reg.SetEnabled(reg.Enabled())
	reg.SetEnabled(true)
	colorings := reg.Counter("graph.csr.bipartitions")
	phases := reg.Counter("matching.csr.hopcroftkarp.phases")
	c := graph.NewSeededGenerator(43).BarabasiAlbertBipartiteCSR(50_000, 3)
	ran := phases.Value()
	mate, _, err := matching.MaximumBipartiteCSR(c)
	if err != nil {
		t.Fatal(err)
	}
	if phases.Value() == ran {
		t.Fatal("ρ(G)'s matching ran no phase, so the phase count proves nothing")
	}
	colored, ran := colorings.Value(), phases.Value()
	ne, err := SolveKMatchingCSR(c, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyKMatchingCSR(ne); err != nil {
		t.Fatal(err)
	}
	if d := colorings.Value() - colored; d != 0 {
		t.Errorf("solve colored the graph %d more times, want 0", d)
	}
	if d := phases.Value() - ran; d != 0 {
		t.Errorf("solve ran %d more Hopcroft–Karp phases, want 0", d)
	}
	if rho := c.NumVertices() - matching.SizeCSR(mate); len(ne.VPSupport) != rho {
		t.Errorf("|IS| = %d, want ρ(G) = %d", len(ne.VPSupport), rho)
	}
}

// TestSparsePipelineCounters pins the sparse-core metrics catalogued in
// OBSERVABILITY.md to one ingest → verified equilibrium pass, the
// sequence the sparse-1m benchmark runs: BuildCSR, ρ(G)'s matching and
// edge cover, the k-matching solve, the Theorem 3.4 audit. Each stage
// moves its own counter by exactly one, and the matching is the only
// stage that colors the graph or runs a Hopcroft–Karp phase.
func TestSparsePipelineCounters(t *testing.T) {
	reg := obs.Default()
	defer reg.SetEnabled(reg.Enabled())
	reg.SetEnabled(true)
	counters := []string{
		"graph.csr.builds",
		"graph.csr.bipartitions",
		"matching.csr.hopcroftkarp.phases",
		"cover.csr.edge_covers_built",
		"core.csr.verifications",
	}
	const solves = "core.solve_sparse.seconds"
	var last obs.Snapshot
	// step checks each metric's change since the previous step against
	// want: a name absent from want must not move, and -1 means "at
	// least one".
	step := func(name string, want map[string]int) {
		t.Helper()
		now := reg.Snapshot()
		for _, c := range counters {
			d, w := int(now.Counters[c]-last.Counters[c]), want[c]
			if (w < 0 && d < 1) || (w >= 0 && d != w) {
				t.Errorf("%s: %s moved by %d, want %d", name, c, d, w)
			}
		}
		if d, w := int(now.Histograms[solves].Count-last.Histograms[solves].Count), want[solves]; d != w {
			t.Errorf("%s: %s count moved by %d, want %d", name, solves, d, w)
		}
		last = now
	}

	src := graph.NewSeededGenerator(7).BarabasiAlbertBipartiteCSR(10_000, 3)
	var us, vs []int32
	src.EachEdge(func(u, v int32) { us, vs = append(us, u), append(vs, v) })
	last = reg.Snapshot()
	c, err := graph.BuildCSR(src.NumVertices(), us, vs)
	if err != nil {
		t.Fatal(err)
	}
	step("BuildCSR", map[string]int{"graph.csr.builds": 1})
	mate, _, err := matching.MaximumBipartiteCSR(c)
	if err != nil {
		t.Fatal(err)
	}
	step("MaximumBipartiteCSR", map[string]int{"graph.csr.bipartitions": 1, "matching.csr.hopcroftkarp.phases": -1})
	if _, _, err := cover.MinimumEdgeCoverCSRFromMatching(c, mate); err != nil {
		t.Fatal(err)
	}
	step("MinimumEdgeCoverCSRFromMatching", map[string]int{"cover.csr.edge_covers_built": 1})
	ne, err := SolveKMatchingCSR(c, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	step("SolveKMatchingCSR", map[string]int{solves: 1})
	if err := VerifyKMatchingCSR(ne); err != nil {
		t.Fatal(err)
	}
	step("VerifyKMatchingCSR", map[string]int{"core.csr.verifications": 1})
}

// HitProbability returns P(Hit(v)) = k / |E(D(tp))| for v in the attacker
// support (Claim 4.3). O(1); allocates the result.
func (ne *SparseEquilibrium) HitProbability() *big.Rat {
	return big.NewRat(int64(ne.K), int64(len(ne.EdgeU)))
}

// Multiplicity returns how many support tuples each support edge belongs
// to: k·δ / |E(D(tp))| with δ = |D(tp)| (Claim 4.9). O(1), does not
// allocate.
func (ne *SparseEquilibrium) Multiplicity() int {
	return ne.K * len(ne.Tuples) / len(ne.EdgeU)
}

// ToTupleEquilibrium expands the sparse equilibrium into the dense
// TupleEquilibrium form, materializing the game.Game — the bridge the
// differential tests use to replay a sparse solve through
// BuildKMatchingNE and VerifyCharacterization. Θ(n·m) game tables: small
// graphs only, never the 10^6-vertex path. Allocates the full game.
func (ne *SparseEquilibrium) ToTupleEquilibrium() (TupleEquilibrium, error) {
	g := ne.C.ToGraph()
	vp := make([]int, len(ne.VPSupport))
	for i, v := range ne.VPSupport {
		vp[i] = int(v)
	}
	tuples := make([]game.Tuple, len(ne.Tuples))
	for i, t := range ne.Tuples {
		edges := make([]graph.Edge, len(t))
		for j, id := range t {
			edges[j] = graph.NewEdge(int(ne.EdgeU[id]), int(ne.EdgeV[id]))
		}
		tuple, err := game.NewTuple(g, edges)
		if err != nil {
			return TupleEquilibrium{}, fmt.Errorf("core: sparse tuple %d: %w", i, err)
		}
		tuples[i] = tuple
	}
	return BuildKMatchingNE(g, ne.Attackers, ne.K, vp, tuples)
}
