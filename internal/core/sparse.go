package core

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"strconv"
	"sync/atomic"

	"github.com/defender-game/defender/internal/cover"
	"github.com/defender-game/defender/internal/game"
	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/obs"
	"github.com/defender-game/defender/internal/par"
	"github.com/defender-game/defender/internal/rat"
)

// Sparse verification counter (catalogued in OBSERVABILITY.md): one
// increment per completed VerifyKMatchingCSR run — the Theorem 3.4 audit
// every sparse-1m benchmark iteration performs on its 10^6-vertex
// equilibrium.
var obsCSRVerifications = obs.Default().Counter("core.csr.verifications")

// verifyParallelGrain is the index-range size below which a verifier
// scan runs inline instead of fanning out: the result is the same at any
// worker count (differentially tested), the guard is purely about
// fan-out cost.
const verifyParallelGrain = 1 << 15

// SparseEquilibrium is a k-matching mixed Nash equilibrium of Π_k(G) in
// flat int32 form — the million-vertex counterpart of TupleEquilibrium.
// It never materializes a game.Game (whose strategy tables are Θ(n·m)):
// both supports are implicit uniform distributions, so three slices and a
// tuple index table describe the whole profile.
//
//   - VPSupport is D(VP), the common attacker support (= IS, ascending);
//     every attacker plays uniformly on it.
//   - EdgeU/EdgeV are E(D(tp)) in the labeling order e_0, e_1, ... of the
//     cyclic construction; edge i joins EdgeU[i] and EdgeV[i].
//   - Tuples is D(tp): each tuple lists K distinct edge indices into
//     EdgeU/EdgeV; the defender plays uniformly on the tuples.
type SparseEquilibrium struct {
	C         *graph.CSR
	Attackers int
	K         int
	VPSupport []int32
	EdgeU     []int32
	EdgeV     []int32
	Tuples    [][]int32
}

// DefenderGain returns the defender's expected profit k·ν / |D(VP)|
// (equation (12) of the paper) as an exact rational. For the sparse
// construction this closed form is proven by VerifyKMatchingCSR, which
// recomputes every tuple load in the rat domain. O(1); allocates the
// result.
func (ne *SparseEquilibrium) DefenderGain() *big.Rat {
	return big.NewRat(int64(ne.K)*int64(ne.Attackers), int64(len(ne.VPSupport)))
}

// algorithmACSR runs step 1–2 of Algorithm A_tuple on the sparse path:
// given a validated partition it assembles the edge-player support of
// Algorithm A — one edge (v, Rep[v]) per VC vertex, then one arbitrary
// incident edge per unused IS vertex — in the exact labeling order the
// dense AlgorithmA uses (VC ascending, then leftover IS ascending), so
// the two paths are differentially comparable. Every support edge touches
// exactly one IS vertex and each IS vertex exactly one support edge.
// O(n + m); allocates the endpoint slices and a bitset.
func algorithmACSR(c *graph.CSR, p cover.PartitionCSR) (us, vs []int32, err error) {
	if err := p.Validate(c); err != nil {
		return nil, nil, fmt.Errorf("core: algorithm A csr: %w", err)
	}
	return algorithmACSRTrusted(c, p)
}

// algorithmACSRTrusted is algorithmACSR minus the partition re-check —
// the internal entry for pipelines whose partition was just validated by
// the search that produced it (partitionFromRepMatching always
// validates), so the end-to-end solve audits each invariant once instead
// of twice.
func algorithmACSRTrusted(c *graph.CSR, p cover.PartitionCSR) (us, vs []int32, err error) {
	usedIS := graph.GetBitset(c.NumVertices())
	defer graph.PutBitset(usedIS)
	us = make([]int32, 0, len(p.IS))
	vs = make([]int32, 0, len(p.IS))
	for _, v := range p.VC {
		r := p.Rep[v]
		usedIS.Set(r)
		us = append(us, v)
		vs = append(vs, r)
	}
	for _, v := range p.IS {
		if usedIS.Has(v) {
			continue
		}
		row := c.Neighbors(int(v))
		if len(row) == 0 {
			return nil, nil, fmt.Errorf("core: algorithm A csr: %w", game.ErrIsolatedVertex)
		}
		// The neighbor lies in VC because IS is independent.
		us = append(us, v)
		vs = append(vs, row[0])
		usedIS.Set(v)
	}
	return us, vs, nil
}

// AlgorithmATupleCSR is Algorithm A_tuple (Figure 1) on the sparse path:
// Algorithm A's edge support, labeled consecutively, traversed cyclically
// in windows of k (δ = E/gcd(E,k) tuples, each edge in exactly k·δ/E of
// them), with both players uniform — a k-matching NE of Π_k(G) by
// Theorem 4.12, computed in O(k·n) after the partition (Theorem 4.13).
// Returns ErrKTooLarge when k exceeds the support size |IS|. Allocates
// the equilibrium slices.
func AlgorithmATupleCSR(c *graph.CSR, attackers, k int, p cover.PartitionCSR) (*SparseEquilibrium, error) {
	return algorithmATupleCSRCtx(context.Background(), c, attackers, k, p, false)
}

// algorithmATupleCSRCtx is the construction body, timed as the span
// "core.atuple_csr" (histogram core.atuple_csr.seconds) so sparse-path
// solves show the O(k·n) construction leg separately from the partition
// search around it. trusted skips the partition re-validation for
// internal callers whose partition search already validated it.
func algorithmATupleCSRCtx(ctx context.Context, c *graph.CSR, attackers, k int, p cover.PartitionCSR, trusted bool) (*SparseEquilibrium, error) {
	sp, _ := obs.Default().StartSpanCtx(ctx, "core.atuple_csr")
	sp.Annotate("k", strconv.Itoa(k))
	defer sp.End()
	if attackers < 1 {
		return nil, fmt.Errorf("core: algorithm A_tuple csr: attackers=%d, want >= 1", attackers)
	}
	builder := algorithmACSR
	if trusted {
		builder = algorithmACSRTrusted
	}
	us, vs, err := builder(c, p)
	if err != nil {
		return nil, err
	}
	e := len(us)
	if k < 1 {
		return nil, fmt.Errorf("core: algorithm A_tuple csr: k=%d, want >= 1", k)
	}
	if k > e {
		return nil, fmt.Errorf("%w: k=%d > |E(D(tp))|=%d", ErrKTooLarge, k, e)
	}
	delta := e / gcd(e, k)
	tuples := make([][]int32, delta)
	pos := 0
	for i := range tuples {
		t := make([]int32, k)
		for j := 0; j < k; j++ {
			t[j] = int32(pos)
			pos = (pos + 1) % e
		}
		tuples[i] = t
	}
	return &SparseEquilibrium{
		C:         c,
		Attackers: attackers,
		K:         k,
		VPSupport: p.IS,
		EdgeU:     us,
		EdgeV:     vs,
		Tuples:    tuples,
	}, nil
}

// SolveKMatchingCSR computes a k-matching NE of Π_k(G) end to end on the
// sparse path: partition search routed by bipartiteness
// (cover.FindNEPartitionCSR), then Algorithm A_tuple. For bipartite
// graphs this is the Theorem 5.1 pipeline at max{O(k·n), O(m√n)} — the
// single-digit-seconds route for 10^6-vertex instances. Allocates the
// equilibrium and the partition scratch. The whole pipeline is timed as the
// span "core.solve_sparse" with the construction nested beneath it as
// "core.atuple_csr".
func SolveKMatchingCSR(c *graph.CSR, attackers, k int) (*SparseEquilibrium, error) {
	sp, ctx := obs.Default().StartSpanCtx(context.Background(), "core.solve_sparse")
	sp.Annotate("k", strconv.Itoa(k))
	sp.Annotate("n", strconv.Itoa(c.NumVertices()))
	defer sp.End()
	p, err := cover.FindNEPartitionCSR(c)
	if err != nil {
		if errors.Is(err, cover.ErrNoPartition) {
			return nil, fmt.Errorf("%w: %v", ErrNoMatchingNE, err)
		}
		return nil, err
	}
	// The search validated p on the way out, so the construction may
	// trust it — one Validate per solve, not two.
	return algorithmATupleCSRCtx(ctx, c, attackers, k, p, true)
}

// VerifyKMatchingCSR checks — exactly, with loads computed in the
// int64-first rat domain, and without materializing a game.Game — that ne
// is a k-matching mixed Nash equilibrium, auditing every condition of
// Theorem 3.4 plus the Definition 4.1 configuration shape:
//
//   - D(VP) is an independent set and every support vertex is incident to
//     exactly one support edge, which belongs to exactly k·δ/E tuples
//     (Definition 4.1, checked by explicit counting over all tuples);
//   - E(D(tp)) is an edge cover of G and D(VP) a vertex cover of it
//     (condition 1);
//   - every support vertex attains the minimum hit probability, computed
//     for all n vertices by counting covering tuples (condition 2(a));
//   - every support tuple attains the maximum expected load k·ν/|IS|,
//     each tuple load accumulated in rat arithmetic (condition 3(a) — the
//     independent-support maximum of MaxTupleLoad case 1);
//   - the attacker mass on V(D(tp)) is exactly ν (condition 3(b)).
//
// O(n + m + k·δ) time; the O(n) counting scratch is pooled. A nil return
// is a proof of equilibrium; the differential tests cross-check it
// against the dense VerifyCharacterization through ToTupleEquilibrium.
//
// The audit runs on the par worker budget, one worker per
// verifyParallelGrain vertices (inline below that): scans fan out over
// contiguous chunks, per-worker partials (hit counts, stamps,
// multiplicities) merge in worker order as integer sums — which are
// order-invariant — and a failing block reduces its per-worker faults to
// the smallest index, so the verdict and the error string are the same
// at every thread count. Shared marks (covered set, IS-incidence counts)
// use atomic claims whose final state is scheduling-independent.
func VerifyKMatchingCSR(ne *SparseEquilibrium) error {
	e := len(ne.EdgeU)
	if ne.Attackers < 1 {
		return fmt.Errorf("%w: attackers=%d", ErrNotEquilibrium, ne.Attackers)
	}
	if len(ne.EdgeV) != e || e == 0 {
		return fmt.Errorf("%w: malformed edge support (%d,%d)", ErrNotEquilibrium, e, len(ne.EdgeV))
	}
	if ne.K < 1 || ne.K > e {
		return fmt.Errorf("%w: k=%d outside 1..%d", ErrNotEquilibrium, ne.K, e)
	}
	c := ne.C
	n := c.NumVertices()
	is := ne.VPSupport
	workers := par.Split(par.Workers(0), n, verifyParallelGrain)
	faults := make([]par.Fault, workers)
	reset := func() {
		for i := range faults {
			faults[i] = par.Fault{}
		}
	}

	// Support shape: ascending/distinct is a sequential relation, so it
	// stays one O(|IS|) loop, but the independence audit reads the
	// finished bitset only, so it fans out.
	inIS := graph.GetBitset(n)
	defer graph.PutBitset(inIS)
	for i, v := range is {
		if v < 0 || int(v) >= n || (i > 0 && is[i-1] >= v) {
			return fmt.Errorf("%w: attacker support not ascending/in-range at %d", ErrNotEquilibrium, v)
		}
		inIS.Set(v)
	}
	par.For(par.Split(workers, len(is), verifyParallelGrain), len(is), func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			v := is[i]
			for _, u := range c.Neighbors(int(v)) {
				if inIS.Has(u) {
					faults[w] = par.Fault{At: i, Err: fmt.Errorf("%w: attacker support not independent, edge (%d,%d)", ErrNotEquilibrium, v, u)}
					return
				}
			}
		}
	})
	if err := par.FirstFault(faults); err != nil {
		return err
	}

	// Edge support, fanned out over edges: membership and touch checks
	// are per-edge; the covered set and IS-incidence counters are shared
	// marks under atomic claim/add.
	incident := par.GetInt32(n)
	clear(incident)
	covered := graph.GetBitset(n)
	defer graph.PutBitset(covered)
	reset()
	par.For(par.Split(workers, e, verifyParallelGrain), e, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			u, v := ne.EdgeU[i], ne.EdgeV[i]
			if !c.HasEdge(int(u), int(v)) {
				faults[w] = par.Fault{At: i, Err: fmt.Errorf("%w: support edge %d=(%d,%d) is not an edge of G", ErrNotEquilibrium, i, u, v)}
				return
			}
			covered.SetAtomic(u)
			covered.SetAtomic(v)
			touch := 0
			if inIS.Has(u) {
				atomic.AddInt32(&incident[u], 1)
				touch++
			}
			if inIS.Has(v) {
				atomic.AddInt32(&incident[v], 1)
				touch++
			}
			if touch != 1 {
				faults[w] = par.Fault{At: i, Err: fmt.Errorf("%w: support edge (%d,%d) touches %d IS vertices, want 1", ErrNotEquilibrium, u, v, touch)}
				return
			}
		}
	})
	if err := par.FirstFault(faults); err != nil {
		return err
	}
	reset()
	par.For(workers, n, func(w, lo, hi int) {
		for v := lo; v < hi; v++ {
			if !covered.Has(int32(v)) {
				faults[w] = par.Fault{At: v, Err: fmt.Errorf("%w: E(D(tp)) does not cover vertex %d", ErrNotEquilibrium, v)}
				return
			}
		}
	})
	if err := par.FirstFault(faults); err != nil {
		return err
	}
	reset()
	par.For(par.Split(workers, len(is), verifyParallelGrain), len(is), func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			if v := is[i]; incident[v] != 1 {
				faults[w] = par.Fault{At: i, Err: fmt.Errorf("%w: support vertex %d incident to %d support edges, want 1", ErrNotEquilibrium, v, incident[v])}
				return
			}
		}
	})
	if err := par.FirstFault(faults); err != nil {
		return err
	}
	if len(is) != e {
		return fmt.Errorf("%w: |IS|=%d != |E(D(tp))|=%d, incidence is not a bijection", ErrNotEquilibrium, len(is), e)
	}
	// Back to the pool as soon as it is dead, not at return: the tuple
	// and hit-count scratch below can then reuse it, and the audit's peak
	// live heap — a 10^6-vertex solve's peak — stays one n-array lower.
	par.PutInt32(incident)

	// Tuple table, fanned out over tuples: each tuple is audited whole by
	// one worker against its own seen-stamp array, and the per-worker
	// multiplicity histograms merge in worker order.
	delta := len(ne.Tuples)
	if delta == 0 || (ne.K*delta)%e != 0 {
		return fmt.Errorf("%w: %d tuples of %d edges cannot spread %d support edges evenly", ErrNotEquilibrium, delta, ne.K, e)
	}
	r := ne.K * delta / e
	tupleWorkers := par.Split(workers, delta, max(1, verifyParallelGrain/max(ne.K, 1)))
	mults := make([][]int32, tupleWorkers)
	reset()
	par.For(tupleWorkers, delta, func(w, lo, hi int) {
		mult := par.GetInt32(e)
		clear(mult)
		mults[w] = mult
		seenEdge := par.GetInt32(e)
		defer par.PutInt32(seenEdge)
		for i := range seenEdge {
			seenEdge[i] = -1
		}
		for ti := lo; ti < hi; ti++ {
			t := ne.Tuples[ti]
			if len(t) != ne.K {
				faults[w] = par.Fault{At: ti, Err: fmt.Errorf("%w: tuple %d has %d edges, want k=%d", ErrNotEquilibrium, ti, len(t), ne.K)}
				return
			}
			for _, id := range t {
				if id < 0 || int(id) >= e {
					faults[w] = par.Fault{At: ti, Err: fmt.Errorf("%w: tuple %d lists edge %d outside support", ErrNotEquilibrium, ti, id)}
					return
				}
				if seenEdge[id] == int32(ti) {
					faults[w] = par.Fault{At: ti, Err: fmt.Errorf("%w: tuple %d repeats edge %d", ErrNotEquilibrium, ti, id)}
					return
				}
				seenEdge[id] = int32(ti)
				mult[id]++
			}
		}
	})
	err := par.FirstFault(faults)
	if err == nil {
		mult := mults[0]
		par.For(par.Split(workers, e, verifyParallelGrain), e, func(w, lo, hi int) {
			for id := lo; id < hi; id++ {
				var m int32
				for _, part := range mults {
					m += part[id]
				}
				mult[id] = m
				if m != int32(r) && faults[w].Err == nil {
					faults[w] = par.Fault{At: id, Err: fmt.Errorf("%w: edge %d occurs in %d tuples, others in %d", ErrNotEquilibrium, id, m, r)}
				}
			}
		})
		err = par.FirstFault(faults)
	}
	for _, m := range mults {
		par.PutInt32(m)
	}
	if err != nil {
		return err
	}

	// Condition 2(a), fanned out over tuples: per-worker hit counts under
	// per-worker stamps — a vertex hit by tuples in two chunks is counted
	// once per chunk and the counts add — then an order-invariant integer
	// merge and a parallel min reduction.
	hitCount := par.GetInt32(n)
	defer par.PutInt32(hitCount)
	hits := make([][]int32, tupleWorkers)
	par.For(tupleWorkers, delta, func(w, lo, hi int) {
		count := par.GetInt32(n)
		clear(count)
		hits[w] = count
		stamp := par.GetInt32(n)
		defer par.PutInt32(stamp)
		for i := range stamp {
			stamp[i] = -1
		}
		for ti := lo; ti < hi; ti++ {
			for _, id := range ne.Tuples[ti] {
				for _, v := range [2]int32{ne.EdgeU[id], ne.EdgeV[id]} {
					if stamp[v] != int32(ti) {
						stamp[v] = int32(ti)
						count[v]++
					}
				}
			}
		}
	})
	mins := make([]int32, workers)
	for i := range mins {
		// Neutral element: a worker left without a chunk (For clamps its
		// fan-out to the range length) must not drag the minimum to 0.
		mins[i] = 1<<31 - 1
	}
	par.For(workers, n, func(w, lo, hi int) {
		m := int32(1<<31 - 1)
		for v := lo; v < hi; v++ {
			var h int32
			for _, part := range hits {
				h += part[v]
			}
			hitCount[v] = h
			if h < m {
				m = h
			}
		}
		mins[w] = m
	})
	for _, h := range hits {
		par.PutInt32(h)
	}
	minHit := mins[0]
	for _, m := range mins[1:] {
		if m < minHit {
			minHit = m
		}
	}
	reset()
	par.For(par.Split(workers, len(is), verifyParallelGrain), len(is), func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			if v := is[i]; hitCount[v] != minHit {
				faults[w] = par.Fault{At: i, Err: fmt.Errorf("%w: support vertex %d has hit probability %d/%d > min %d/%d",
					ErrNotEquilibrium, v, hitCount[v], delta, minHit, delta)}
				return
			}
		}
	})
	if err := par.FirstFault(faults); err != nil {
		return err
	}

	// Condition 3(a): each IS vertex carries load ν/|IS| (uniform
	// attackers on IS), so the loads are supported on an independent set
	// and the maximum tuple load is the k largest loads: k·ν/|IS|
	// (MaxTupleLoad case 1; k <= |IS| holds by the bijection). Every
	// support tuple must attain it — recomputed per tuple, fanned out
	// with per-worker scratch, in the int64-first rat domain.
	var perVertex, want rat.Rat
	perVertex.SetFrac64(int64(ne.Attackers), int64(len(is)))
	want.SetFrac64(int64(ne.K)*int64(ne.Attackers), int64(len(is)))
	reset()
	par.For(tupleWorkers, delta, func(w, lo, hi int) {
		var tupleLoad rat.Rat
		for ti := lo; ti < hi; ti++ {
			tupleLoad.SetInt64(0)
			for _, id := range ne.Tuples[ti] {
				for _, v := range [2]int32{ne.EdgeU[id], ne.EdgeV[id]} {
					if inIS.Has(v) {
						// Distinct edges touch distinct IS vertices (the
						// bijection), so no double counting inside a tuple.
						tupleLoad.Add(&tupleLoad, &perVertex)
					}
				}
			}
			if tupleLoad.Cmp(&want) != 0 {
				faults[w] = par.Fault{At: ti, Err: fmt.Errorf("%w: tuple %d has load %v < max %v", ErrNotEquilibrium, ti, tupleLoad.Big(), want.Big())}
				return
			}
		}
	})
	if err := par.FirstFault(faults); err != nil {
		return err
	}

	// Condition 3(b): count the hit IS vertices with per-worker integer
	// partials, then compare count·(ν/|IS|) — the exact rational a
	// term-by-term sum of ν/|IS| gives — against ν.
	counts := make([]int64, workers)
	par.For(workers, len(is), func(w, lo, hi int) {
		var cnt int64
		for i := lo; i < hi; i++ {
			if hitCount[is[i]] > 0 {
				cnt++
			}
		}
		counts[w] = cnt
	})
	var hit int64
	for _, cnt := range counts {
		hit += cnt
	}
	var mass, nu rat.Rat
	nu.SetInt64(int64(ne.Attackers))
	mass.SetFrac64(hit*int64(ne.Attackers), int64(len(is)))
	if mass.Cmp(&nu) != 0 {
		return fmt.Errorf("%w: attacker mass on V(D(tp)) is %v, want ν=%v", ErrNotEquilibrium, mass.Big(), nu.Big())
	}
	obsCSRVerifications.Inc()
	return nil
}
