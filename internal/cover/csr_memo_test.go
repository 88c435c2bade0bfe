package cover

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/matching"
	"github.com/defender-game/defender/internal/obs"
)

var (
	obsColorings = obs.Default().Counter("graph.csr.bipartitions")
	obsHKPhases  = obs.Default().Counter("matching.csr.hopcroftkarp.phases")
)

// enableMetrics turns the default registry on for one test, so the
// counters move, and restores its previous state afterwards.
func enableMetrics(t *testing.T) {
	reg := obs.Default()
	was := reg.Enabled()
	reg.SetEnabled(true)
	t.Cleanup(func() { reg.SetEnabled(was) })
}

// memoResult is everything one goroutine of TestCSRMemoConcurrent reads
// off the shared CSR.
type memoResult struct {
	colored, side []int8
	mate, subMate []int32
	p             PartitionCSR
	errs          [3]error
}

// TestCSRMemoConcurrent races eight goroutines over one CSR, each calling
// Bipartition, MaximumBipartiteCSR, HopcroftKarpCSRSubgraph and
// FindNEPartitionCSR (half of them partition first). Under -race this is
// the memo's concurrency check: every goroutine sees the same coloring,
// matching and partition as a solve on a twin CSR, and the shared CSR is
// colored exactly once and matched by exactly one Hopcroft–Karp run.
func TestCSRMemoConcurrent(t *testing.T) {
	enableMetrics(t)
	gen := func() *graph.CSR { return graph.NewSeededGenerator(37).BarabasiAlbertBipartiteCSR(20_000, 3) }

	twin := gen()
	phases := obsHKPhases.Value()
	wantMate, wantSide, err := matching.MaximumBipartiteCSR(twin)
	if err != nil {
		t.Fatal(err)
	}
	runPhases := obsHKPhases.Value() - phases
	if runPhases == 0 {
		t.Fatal("the twin's matching ran no phase, so the phase count proves nothing")
	}
	wantP, err := FindNEPartitionCSR(twin)
	if err != nil {
		t.Fatal(err)
	}

	c := gen()
	colorings, phases := obsColorings.Value(), obsHKPhases.Value()
	results := make([]memoResult, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(r *memoResult, partitionFirst bool) {
			defer wg.Done()
			<-start
			if partitionFirst {
				r.p, r.errs[0] = FindNEPartitionCSR(c)
			}
			r.colored, r.errs[1] = c.Bipartition()
			r.subMate = matching.HopcroftKarpCSRSubgraph(c, r.colored)
			r.mate, r.side, r.errs[2] = matching.MaximumBipartiteCSR(c)
			if !partitionFirst {
				r.p, r.errs[0] = FindNEPartitionCSR(c)
			}
		}(&results[i], i%2 == 1)
	}
	close(start)
	wg.Wait()

	for i, r := range results {
		for _, err := range r.errs {
			if err != nil {
				t.Fatalf("goroutine %d: %v", i, err)
			}
		}
		if !slices.Equal(r.colored, wantSide) || !slices.Equal(r.side, wantSide) {
			t.Errorf("goroutine %d: coloring differs from the twin's", i)
		}
		if !slices.Equal(r.mate, wantMate) || !slices.Equal(r.subMate, wantMate) {
			t.Errorf("goroutine %d: matching differs from the twin's", i)
		}
		if !slices.Equal(r.p.IS, wantP.IS) || !slices.Equal(r.p.VC, wantP.VC) || !slices.Equal(r.p.Rep, wantP.Rep) {
			t.Errorf("goroutine %d: partition differs from the twin's", i)
		}
	}
	if d := obsColorings.Value() - colorings; d != 1 {
		t.Errorf("%d colorings of one CSR, want 1", d)
	}
	if d := obsHKPhases.Value() - phases; d != runPhases {
		t.Errorf("%d phases on one CSR, want one run's %d", d, runPhases)
	}
}

// TestFindNEPartitionCSRReusesMatching checks that the König route reads
// the matching MaximumBipartiteCSR memoized: after it, the partition
// search neither colors nor matches again, and its representatives are
// that matching's mates.
func TestFindNEPartitionCSRReusesMatching(t *testing.T) {
	enableMetrics(t)
	c := graph.NewSeededGenerator(41).BarabasiAlbertBipartiteCSR(20_000, 3)
	mate, _, err := matching.MaximumBipartiteCSR(c)
	if err != nil {
		t.Fatal(err)
	}
	colorings, phases := obsColorings.Value(), obsHKPhases.Value()
	p, err := FindNEPartitionCSR(c)
	if err != nil {
		t.Fatal(err)
	}
	if d := obsColorings.Value() - colorings; d != 0 {
		t.Errorf("partition search colored %d more times, want 0", d)
	}
	if d := obsHKPhases.Value() - phases; d != 0 {
		t.Errorf("partition search ran %d more phases, want 0", d)
	}
	for _, v := range p.VC {
		if p.Rep[v] != mate[v] {
			t.Fatalf("Rep[%d] = %d, the memoized mate is %d", v, p.Rep[v], mate[v])
		}
	}
	for _, v := range p.IS {
		if p.Rep[v] != matching.Unmatched {
			t.Fatalf("Rep[%d] = %d for an IS vertex, want %d", v, p.Rep[v], matching.Unmatched)
		}
	}
	// The partition owns its slices: scribbling over one leaves the next
	// search's answer intact.
	want := slices.Clone(p.Rep)
	for i := range p.Rep {
		p.Rep[i] = 0
	}
	again, err := FindNEPartitionCSR(c)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(again.Rep, want) {
		t.Error("scribbling over one partition's Rep changed the next one")
	}
}

// TestFindNEPartitionCSRGreedyRouteUnmemoized checks the non-bipartite
// route: a BA-bipartite graph with one same-side chord is colored once
// (ErrNotBipartite is memoized), and each partition search runs its own
// Hopcroft–Karp over the greedy IS/VC split instead of reading a memo.
func TestFindNEPartitionCSRGreedyRouteUnmemoized(t *testing.T) {
	enableMetrics(t)
	g := graph.NewSeededGenerator(1).BarabasiAlbertBipartiteCSR(2000, 3).ToGraph()
	side, err := graph.FromGraph(g).Bipartition()
	if err != nil {
		t.Fatal(err)
	}
	a, b := -1, -1
	for v := 0; v < len(side) && b < 0; v++ {
		switch {
		case side[v] != 0:
		case a < 0:
			a = v
		case !g.HasEdge(a, v):
			b = v
		}
	}
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	c := graph.FromGraph(g)

	colorings := obsColorings.Value()
	var runs []uint64
	for i := 0; i < 2; i++ {
		phases := obsHKPhases.Value()
		if _, err := FindNEPartitionCSR(c); !errors.Is(err, ErrPartitionNotFound) {
			t.Fatalf("search %d: got %v, want ErrPartitionNotFound", i, err)
		}
		runs = append(runs, obsHKPhases.Value()-phases)
	}
	if runs[0] == 0 || runs[1] != runs[0] {
		t.Errorf("phases per search %v: want two equal, non-zero greedy-route runs", runs)
	}
	if _, _, err := matching.MaximumBipartiteCSR(c); !errors.Is(err, graph.ErrNotBipartite) {
		t.Errorf("MaximumBipartiteCSR: got %v, want ErrNotBipartite", err)
	}
	if d := obsColorings.Value() - colorings; d != 1 {
		t.Errorf("%d colorings of one non-bipartite CSR, want 1", d)
	}
}
