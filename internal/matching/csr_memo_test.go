package matching

import (
	"errors"
	"slices"
	"testing"

	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/obs"
	"github.com/defender-game/defender/internal/par"
)

// obsCSRBipartitions reads the coloring counter graph.csr.bipartitions,
// which the graph package increments once per coloring it computes.
var obsCSRBipartitions = obs.Default().Counter("graph.csr.bipartitions")

// TestCSRMemoCopiesOut checks that every entry point serving the memoized
// coloring and matching hands out copies: scribbling over the returned
// mates and sides, then calling again, returns the original values, and
// no call after the first recomputes either.
func TestCSRMemoCopiesOut(t *testing.T) {
	enableMetrics(t)
	c := graph.NewSeededGenerator(19).BarabasiAlbertBipartiteCSR(20_000, 3)
	mate, side, err := MaximumBipartiteCSR(c)
	if err != nil {
		t.Fatal(err)
	}
	wantMate, wantSide := slices.Clone(mate), slices.Clone(side)
	colorings, phases := obsCSRBipartitions.Value(), obsCSRHKPhases.Value()

	scribble := func(mate []int32, side []int8) {
		for i := range mate {
			mate[i] = 0
		}
		for i := range side {
			side[i] = 1 - side[i]
		}
	}
	check := func(label string, mate []int32, side []int8) {
		t.Helper()
		if mate != nil && !slices.Equal(mate, wantMate) {
			t.Fatalf("%s: mate differs from the first call's", label)
		}
		if side != nil && !slices.Equal(side, wantSide) {
			t.Fatalf("%s: side differs from the first call's", label)
		}
	}

	scribble(mate, side)
	mate, side, err = MaximumBipartiteCSR(c)
	if err != nil {
		t.Fatal(err)
	}
	check("MaximumBipartiteCSR", mate, side)

	colored, err := c.Bipartition()
	if err != nil {
		t.Fatal(err)
	}
	check("Bipartition", nil, colored)
	scribble(nil, colored)
	colored, err = c.Bipartition()
	if err != nil {
		t.Fatal(err)
	}
	check("Bipartition after scribble", nil, colored)

	sub := HopcroftKarpCSRSubgraph(c, colored)
	check("HopcroftKarpCSRSubgraph", sub, nil)
	scribble(sub, nil)
	check("HopcroftKarpCSRSubgraph after scribble", HopcroftKarpCSRSubgraph(c, colored), nil)

	if d := obsCSRBipartitions.Value() - colorings; d != 0 {
		t.Errorf("%d colorings recomputed from the memo, want 0", d)
	}
	if d := obsCSRHKPhases.Value() - phases; d != 0 {
		t.Errorf("%d phases recomputed from the memo, want 0", d)
	}

	// A side that differs from the memoized coloring is matched fresh and
	// leaves the memo as it was.
	flipped := slices.Clone(wantSide)
	scribble(nil, flipped)
	flippedMate := HopcroftKarpCSRSubgraph(c, flipped)
	checkSubgraphMatching(t, c, flipped, flippedMate)
	if obsCSRHKPhases.Value() == phases {
		t.Error("flipped side served from the memo: no phase ran")
	}
	mate, side, err = MaximumBipartiteCSR(c)
	if err != nil {
		t.Fatal(err)
	}
	check("MaximumBipartiteCSR after a fresh subgraph match", mate, side)
}

// TestHopcroftKarpCSRSubgraphNeverColors checks that the memo lookup in
// HopcroftKarpCSRSubgraph only compares: on a CSR whose coloring was
// never asked for, a proper coloring handed in from elsewhere is matched
// fresh, without coloring c, and the memo stays empty.
func TestHopcroftKarpCSRSubgraphNeverColors(t *testing.T) {
	enableMetrics(t)
	gen := func() *graph.CSR { return graph.NewSeededGenerator(23).BarabasiAlbertBipartiteCSR(20_000, 3) }
	side, err := gen().Bipartition()
	if err != nil {
		t.Fatal(err)
	}
	c := gen()
	colorings, phases := obsCSRBipartitions.Value(), obsCSRHKPhases.Value()
	first := HopcroftKarpCSRSubgraph(c, side)
	mid := obsCSRHKPhases.Value()
	second := HopcroftKarpCSRSubgraph(c, side)
	if d := obsCSRBipartitions.Value() - colorings; d != 0 {
		t.Errorf("%d colorings computed to compare, want 0", d)
	}
	if mid == phases || obsCSRHKPhases.Value()-mid != mid-phases {
		t.Errorf("phases %d then %d: want two equal fresh runs", mid-phases, obsCSRHKPhases.Value()-mid)
	}
	if !slices.Equal(first, second) {
		t.Error("two fresh runs on one input differ")
	}
	if c.IsMemoizedBipartition(side) {
		t.Error("a subgraph match memoized the coloring")
	}
}

// TestMaximumBipartiteCSRMemoizesErrNotBipartite checks that an odd cycle
// is found once: the error is memoized like a coloring would be.
func TestMaximumBipartiteCSRMemoizesErrNotBipartite(t *testing.T) {
	enableMetrics(t)
	c := graph.FromGraph(graph.Cycle(7))
	colorings := obsCSRBipartitions.Value()
	for i := 0; i < 3; i++ {
		if _, _, err := MaximumBipartiteCSR(c); !errors.Is(err, graph.ErrNotBipartite) {
			t.Fatalf("call %d: got %v, want ErrNotBipartite", i, err)
		}
		if _, err := c.Bipartition(); !errors.Is(err, graph.ErrNotBipartite) {
			t.Fatalf("call %d: Bipartition got %v, want ErrNotBipartite", i, err)
		}
		if c.IsBipartite() {
			t.Fatalf("call %d: C7 reported bipartite", i)
		}
	}
	if d := obsCSRBipartitions.Value() - colorings; d != 1 {
		t.Errorf("%d colorings for one graph, want 1", d)
	}
}

// TestHopcroftKarpCSRSubgraphThreadsIdentity is the matching-level twin
// of core's TestSolveKMatchingCSRThreadsIdentity: the mates of a fresh
// 140k-vertex CSR (several parallel grains, so budgets > 1 fan the phase
// BFS out) are byte-identical at thread budgets 1, 2 and 8. Each budget
// gets its own CSR, so the memo cannot serve one budget's matching to
// another, and the phase counter proves each budget ran the engine.
func TestHopcroftKarpCSRSubgraphThreadsIdentity(t *testing.T) {
	enableMetrics(t)
	defer par.SetThreads(0)
	var base []int32
	var basePhases uint64
	for _, threads := range []int{1, 2, 8} {
		par.SetThreads(threads)
		c := graph.NewSeededGenerator(47).BarabasiAlbertBipartiteCSR(140_000, 3)
		side, err := c.Bipartition()
		if err != nil {
			t.Fatal(err)
		}
		before := obsCSRHKPhases.Value()
		mate := HopcroftKarpCSRSubgraph(c, side)
		phases := obsCSRHKPhases.Value() - before
		if phases == 0 {
			t.Fatalf("threads=%d: no phase ran, so the parallel BFS went untested", threads)
		}
		checkSubgraphMatching(t, c, side, mate)
		if base == nil {
			base, basePhases = mate, phases
			continue
		}
		if phases != basePhases {
			t.Errorf("threads=%d: %d phases, threads=1 ran %d", threads, phases, basePhases)
		}
		if !slices.Equal(mate, base) {
			t.Errorf("threads=%d: mates differ from threads=1", threads)
		}
	}
}
