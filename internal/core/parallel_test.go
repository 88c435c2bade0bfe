package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/obs"
	"github.com/defender-game/defender/internal/par"
	"github.com/defender-game/defender/internal/rat"
)

// bigSparseInstance spans several parallel grains (1<<15 vertices each),
// so a thread budget > 1 really fans out the stages that have a parallel
// body: the Hopcroft–Karp BFS frontiers and the verifier.
func bigSparseInstance() *graph.CSR {
	return graph.NewSeededGenerator(47).BarabasiAlbertBipartiteCSR(140_000, 3)
}

// equalEquilibria reports every field of two sparse equilibria that the
// byte-identity contract covers: supports, edge labeling, tuple table,
// and the closed-form gain/hit rationals derived from them.
func equalEquilibria(t *testing.T, label string, a, b *SparseEquilibrium) {
	t.Helper()
	if !slices.Equal(a.VPSupport, b.VPSupport) {
		t.Errorf("%s: attacker supports differ", label)
	}
	if !slices.Equal(a.EdgeU, b.EdgeU) || !slices.Equal(a.EdgeV, b.EdgeV) {
		t.Errorf("%s: edge supports differ", label)
	}
	if len(a.Tuples) != len(b.Tuples) {
		t.Fatalf("%s: tuple counts differ: %d vs %d", label, len(a.Tuples), len(b.Tuples))
	}
	for i := range a.Tuples {
		if !slices.Equal(a.Tuples[i], b.Tuples[i]) {
			t.Fatalf("%s: tuple %d differs", label, i)
		}
	}
	if a.DefenderGain().Cmp(b.DefenderGain()) != 0 {
		t.Errorf("%s: gains differ: %v vs %v", label, a.DefenderGain(), b.DefenderGain())
	}
	if a.HitProbability().Cmp(b.HitProbability()) != 0 {
		t.Errorf("%s: hit probabilities differ: %v vs %v", label, a.HitProbability(), b.HitProbability())
	}
}

// freshCSR rebuilds c's graph as a new CSR through BuildCSR, so nothing
// memoized on c (its coloring and maximum matching) carries over.
func freshCSR(t *testing.T, c *graph.CSR) *graph.CSR {
	t.Helper()
	var us, vs []int32
	c.EachEdge(func(u, v int32) { us, vs = append(us, u), append(vs, v) })
	fresh, err := graph.BuildCSR(c.NumVertices(), us, vs)
	if err != nil {
		t.Fatal(err)
	}
	return fresh
}

// TestSolveKMatchingCSRThreadsIdentity is the determinism contract of the
// whole parallel pipeline: the equilibrium solved under thread budgets 1,
// 2 and 8 is bit-identical — same supports, same edge labeling, same
// tuple table — on the golden corpus and on an instance large enough for
// every parallel body to actually engage. Budget 8 on this box is
// oversubscribed on purpose: correctness must not depend on GOMAXPROCS.
//
// Each budget solves a fresh CSR of the instance, so it colors and
// matches the graph itself instead of reading the previous budget's memo:
// the coloring counter moves by one per budget, and the phase counter by
// the same, non-zero count on the large instance.
func TestSolveKMatchingCSRThreadsIdentity(t *testing.T) {
	reg := obs.Default()
	defer reg.SetEnabled(reg.Enabled())
	reg.SetEnabled(true)
	colorings := reg.Counter("graph.csr.bipartitions")
	phases := reg.Counter("matching.csr.hopcroftkarp.phases")
	defer par.SetThreads(0)
	instances := sparseCorpus()
	instances["baBip140k"] = bigSparseInstance()
	for name, instance := range instances {
		var base *SparseEquilibrium
		var basePhases uint64
		for _, threads := range []int{1, 2, 8} {
			par.SetThreads(threads)
			c := freshCSR(t, instance)
			colored, ran := colorings.Value(), phases.Value()
			ne, err := SolveKMatchingCSR(c, 5, 2)
			if errors.Is(err, ErrKTooLarge) {
				break
			}
			if err != nil {
				t.Fatalf("%s threads=%d: %v", name, threads, err)
			}
			if d := colorings.Value() - colored; d != 1 {
				t.Fatalf("%s threads=%d: %d colorings, want 1 (a fresh CSR)", name, threads, d)
			}
			ran = phases.Value() - ran
			if err := VerifyKMatchingCSR(ne); err != nil {
				t.Fatalf("%s threads=%d: audit: %v", name, threads, err)
			}
			if base == nil {
				base, basePhases = ne, ran
				if name == "baBip140k" && ran == 0 {
					t.Fatalf("%s: no Hopcroft–Karp phase ran, so the parallel BFS went untested", name)
				}
				continue
			}
			if ran != basePhases {
				t.Errorf("%s threads=%d: %d phases, threads=1 ran %d", name, threads, ran, basePhases)
			}
			equalEquilibria(t, name, base, ne)
		}
	}
}

// cloneEquilibrium deep-copies the slices a mutation may write, so one
// solve can seed every mutant.
func cloneEquilibrium(ne *SparseEquilibrium) *SparseEquilibrium {
	cp := *ne
	cp.VPSupport = slices.Clone(ne.VPSupport)
	cp.EdgeU = slices.Clone(ne.EdgeU)
	cp.EdgeV = slices.Clone(ne.EdgeV)
	cp.Tuples = make([][]int32, len(ne.Tuples))
	for i, t := range ne.Tuples {
		cp.Tuples[i] = slices.Clone(t)
	}
	return &cp
}

// TestVerifyKMatchingCSRParallelMatchesSerial differentially replays
// VerifyKMatchingCSR under thread budgets 1, 2, 3 and 8 against the
// single-threaded oracle below, on bigSparseInstance: every budget
// accepts the valid equilibrium, and on every corrupted variant each
// budget rejects with the oracle's exact error — the smallest-index
// fault reduction is the first error a serial scan reports.
func TestVerifyKMatchingCSRParallelMatchesSerial(t *testing.T) {
	defer par.SetThreads(0)
	par.SetThreads(1)
	valid, err := SolveKMatchingCSR(bigSparseInstance(), 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*SparseEquilibrium){
		"valid": func(*SparseEquilibrium) {},
		"support-not-sorted": func(ne *SparseEquilibrium) {
			ne.VPSupport[0], ne.VPSupport[1] = ne.VPSupport[1], ne.VPSupport[0]
		},
		"shrink-support": func(ne *SparseEquilibrium) { ne.VPSupport = ne.VPSupport[1:] },
		"fake-edge": func(ne *SparseEquilibrium) {
			ne.EdgeU[0], ne.EdgeV[0] = ne.VPSupport[0], ne.VPSupport[1]
		},
		"drop-edge": func(ne *SparseEquilibrium) {
			ne.EdgeU = ne.EdgeU[1:]
			ne.EdgeV = ne.EdgeV[1:]
		},
		"drop-tuple": func(ne *SparseEquilibrium) { ne.Tuples = ne.Tuples[1:] },
		"repeat-edge-in-tuple": func(ne *SparseEquilibrium) {
			ne.Tuples[0] = []int32{ne.Tuples[0][0], ne.Tuples[0][0], ne.Tuples[0][1], ne.Tuples[0][2]}
		},
		"short-tuple": func(ne *SparseEquilibrium) {
			ne.Tuples[len(ne.Tuples)-1] = ne.Tuples[len(ne.Tuples)-1][:2]
		},
		"edge-out-of-support": func(ne *SparseEquilibrium) {
			ne.Tuples[0][0] = int32(len(ne.EdgeU))
		},
		// Faults in two workers' chunks: the reported one must be the
		// smaller index, as in a serial scan.
		"two-fake-edges": func(ne *SparseEquilibrium) {
			for _, i := range []int{len(ne.EdgeU) / 3, len(ne.EdgeU) - 1} {
				ne.EdgeU[i], ne.EdgeV[i] = ne.VPSupport[0], ne.VPSupport[1]
			}
		},
		"two-repeat-tuples": func(ne *SparseEquilibrium) {
			for _, i := range []int{len(ne.Tuples) / 3, len(ne.Tuples) - 1} {
				ne.Tuples[i][1] = ne.Tuples[i][0]
			}
		},
	}
	for name, mutate := range mutations {
		ne := cloneEquilibrium(valid)
		mutate(ne)
		oracleErr := verifyKMatchingCSRSerial(ne)
		if (oracleErr == nil) != (name == "valid") {
			t.Fatalf("%s: oracle verdict %v", name, oracleErr)
		}
		for _, threads := range []int{1, 2, 3, 8} {
			par.SetThreads(threads)
			err := VerifyKMatchingCSR(ne)
			switch {
			case (err == nil) != (oracleErr == nil):
				t.Fatalf("%s threads=%d: verifier error %v, oracle error %v", name, threads, err, oracleErr)
			case err != nil && err.Error() != oracleErr.Error():
				t.Errorf("%s threads=%d: verifier error %q, oracle error %q", name, threads, err, oracleErr)
			}
		}
	}
}

// verifyKMatchingCSRSerial is the single-threaded audit body — the
// reference the parallel body must match bit for bit.
func verifyKMatchingCSRSerial(ne *SparseEquilibrium) error {
	c := ne.C
	n := c.NumVertices()
	e := len(ne.EdgeU)
	is := ne.VPSupport

	// Support shape: IS ascending, distinct, independent in G.
	inIS := graph.GetBitset(n)
	defer graph.PutBitset(inIS)
	for i, v := range is {
		if v < 0 || int(v) >= n || (i > 0 && is[i-1] >= v) {
			return fmt.Errorf("%w: attacker support not ascending/in-range at %d", ErrNotEquilibrium, v)
		}
		inIS.Set(v)
	}
	for _, v := range is {
		for _, u := range c.Neighbors(int(v)) {
			if inIS.Has(u) {
				return fmt.Errorf("%w: attacker support not independent, edge (%d,%d)", ErrNotEquilibrium, v, u)
			}
		}
	}

	// Edge support: real edges of G, covering every vertex (condition 1),
	// each touching exactly one IS vertex with D(VP) covering every
	// support edge, and IS↔edge incidence a bijection (Definition 4.1(2)).
	incident := par.GetInt32(n)
	defer par.PutInt32(incident)
	clear(incident)
	covered := graph.GetBitset(n)
	defer graph.PutBitset(covered)
	for i := 0; i < e; i++ {
		u, v := ne.EdgeU[i], ne.EdgeV[i]
		if !c.HasEdge(int(u), int(v)) {
			return fmt.Errorf("%w: support edge %d=(%d,%d) is not an edge of G", ErrNotEquilibrium, i, u, v)
		}
		covered.Set(u)
		covered.Set(v)
		touch := 0
		if inIS.Has(u) {
			incident[u]++
			touch++
		}
		if inIS.Has(v) {
			incident[v]++
			touch++
		}
		if touch != 1 {
			return fmt.Errorf("%w: support edge (%d,%d) touches %d IS vertices, want 1", ErrNotEquilibrium, u, v, touch)
		}
	}
	for v := 0; v < n; v++ {
		if !covered.Has(int32(v)) {
			return fmt.Errorf("%w: E(D(tp)) does not cover vertex %d", ErrNotEquilibrium, v)
		}
	}
	for _, v := range is {
		if incident[v] != 1 {
			return fmt.Errorf("%w: support vertex %d incident to %d support edges, want 1", ErrNotEquilibrium, v, incident[v])
		}
	}
	if len(is) != e {
		return fmt.Errorf("%w: |IS|=%d != |E(D(tp))|=%d, incidence is not a bijection", ErrNotEquilibrium, len(is), e)
	}

	// Tuple table: δ tuples of k distinct in-range edges, every edge in
	// exactly r = k·δ/e of them (Definition 4.1(3), explicit count).
	delta := len(ne.Tuples)
	if delta == 0 || (ne.K*delta)%e != 0 {
		return fmt.Errorf("%w: %d tuples of %d edges cannot spread %d support edges evenly", ErrNotEquilibrium, delta, ne.K, e)
	}
	r := ne.K * delta / e
	mult := par.GetInt32(e)
	defer par.PutInt32(mult)
	clear(mult)
	seenEdge := par.GetInt32(e)
	defer par.PutInt32(seenEdge)
	for i := range seenEdge {
		seenEdge[i] = -1
	}
	for ti, t := range ne.Tuples {
		if len(t) != ne.K {
			return fmt.Errorf("%w: tuple %d has %d edges, want k=%d", ErrNotEquilibrium, ti, len(t), ne.K)
		}
		for _, id := range t {
			if id < 0 || int(id) >= e {
				return fmt.Errorf("%w: tuple %d lists edge %d outside support", ErrNotEquilibrium, ti, id)
			}
			if seenEdge[id] == int32(ti) {
				return fmt.Errorf("%w: tuple %d repeats edge %d", ErrNotEquilibrium, ti, id)
			}
			seenEdge[id] = int32(ti)
			mult[id]++
		}
	}
	for id, m := range mult {
		if m != int32(r) {
			return fmt.Errorf("%w: edge %d occurs in %d tuples, others in %d", ErrNotEquilibrium, id, m, r)
		}
	}

	// Condition 2(a): hit counts for all n vertices — hitCount[v]·(1/δ) is
	// P(Hit(v)); support vertices must attain the minimum. Counts are
	// exact, so the comparison stays in integers over the common
	// denominator δ.
	hitCount := par.GetInt32(n)
	defer par.PutInt32(hitCount)
	clear(hitCount)
	stamp := par.GetInt32(n)
	defer par.PutInt32(stamp)
	for i := range stamp {
		stamp[i] = -1
	}
	for ti, t := range ne.Tuples {
		for _, id := range t {
			for _, v := range [2]int32{ne.EdgeU[id], ne.EdgeV[id]} {
				if stamp[v] != int32(ti) {
					stamp[v] = int32(ti)
					hitCount[v]++
				}
			}
		}
	}
	minHit := hitCount[0]
	for _, h := range hitCount[1:] {
		if h < minHit {
			minHit = h
		}
	}
	for _, v := range is {
		if hitCount[v] != minHit {
			return fmt.Errorf("%w: support vertex %d has hit probability %d/%d > min %d/%d",
				ErrNotEquilibrium, v, hitCount[v], delta, minHit, delta)
		}
	}

	// Condition 3(a): each IS vertex carries load ν/|IS| (uniform
	// attackers on IS), so the loads are supported on an independent set
	// and the maximum tuple load is the k largest loads: k·ν/|IS|
	// (MaxTupleLoad case 1; k <= |IS| holds by the bijection). Every
	// support tuple must attain it — accumulated in the rat domain, where
	// these small fractions stay on the allocation-free int64 path.
	var perVertex, want, tupleLoad rat.Rat
	perVertex.SetFrac64(int64(ne.Attackers), int64(len(is)))
	want.SetFrac64(int64(ne.K)*int64(ne.Attackers), int64(len(is)))
	for ti, t := range ne.Tuples {
		tupleLoad.SetInt64(0)
		for _, id := range t {
			for _, v := range [2]int32{ne.EdgeU[id], ne.EdgeV[id]} {
				if inIS.Has(v) {
					// Distinct edges touch distinct IS vertices (the
					// bijection), so no double counting inside a tuple.
					tupleLoad.Add(&tupleLoad, &perVertex)
				}
			}
		}
		if tupleLoad.Cmp(&want) != 0 {
			return fmt.Errorf("%w: tuple %d has load %v < max %v", ErrNotEquilibrium, ti, tupleLoad.Big(), want.Big())
		}
	}

	// Condition 3(b): the attacker mass on V(D(tp)) is exactly ν. Every
	// support edge lies in some tuple (r >= 1), so V(D(tp)) is the set of
	// support endpoints; summing ν/|IS| over its IS members must give ν.
	var mass, nu rat.Rat
	nu.SetInt64(int64(ne.Attackers))
	for _, v := range is {
		if hitCount[v] > 0 {
			mass.Add(&mass, &perVertex)
		}
	}
	if mass.Cmp(&nu) != 0 {
		return fmt.Errorf("%w: attacker mass on V(D(tp)) is %v, want ν=%v", ErrNotEquilibrium, mass.Big(), nu.Big())
	}
	return nil
}
