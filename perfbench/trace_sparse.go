package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/defender-game/defender/internal/matching"
	"github.com/defender-game/defender/internal/obs"
	"github.com/defender-game/defender/internal/par"
)

// tracedPairs is how many untraced and traced iterations a traced
// sparse-1m run alternates: single iterations vary by about a tenth on a
// shared machine, which would swamp the tracing overhead.
const tracedPairs = 2

// traceSparse is the traced sparse-1m run: after an untraced warm-up,
// untraced reference iterations alternating with traced ones at nproc
// threads (stage times, allocations, Hopcroft–Karp phases), the König
// cover timed apart, and a traced iteration at one thread for the
// per-stage parallel speedup.
func traceSparse(r *report, in sparseInput) error {
	check := func(res *sparseResult, err error) error {
		if err == nil {
			err = checkSparse(res)
		}
		return err
	}
	if err := check(sparseIteration(in, false, callStep)); err != nil {
		return err
	}

	// Hopcroft–Karp phases and par imbalance are read from registry
	// snapshots by name.
	reg := obs.Default()
	phases := func() uint64 { return reg.Snapshot().Counters["matching.csr.hopcroftkarp.phases"] }
	st := newStageTimes()
	var (
		untraced, traced time.Duration
		use              usage
		res              *sparseResult
		hkPhases, iterPh uint64
	)
	for i := 0; i < tracedPairs; i++ {
		before, t := usageNow(), time.Now()
		ref, err := sparseIteration(in, false, callStep)
		untraced, use = untraced+time.Since(t), use.plus(usageNow().since(before))
		if err := check(ref, err); err != nil {
			return err
		}

		start := phases()
		t = time.Now()
		res, err = sparseIteration(in, true, func(s step) error {
			before := phases()
			err := st.run(s.name, s.fn)
			if s.name == "matching.hopcroft_karp" {
				hkPhases = phases() - before
			}
			return err
		})
		traced += time.Since(t)
		iterPh = phases() - start
		if err := check(res, err); err != nil {
			return err
		}
	}
	imbalance := reg.Snapshot().Gauges["par.imbalance"] / 1000

	one := newStageTimes()
	par.SetThreads(1)
	err := check(sparseIteration(in, true, func(s step) error { return one.run(s.name, s.fn) }))
	par.SetThreads(runtime.NumCPU())
	if err != nil {
		return err
	}
	r.addOps(2+2*tracedPairs, 0, 0)

	// Off the blocking path: the König cover that cover.partition_csr
	// derives inside, on the same matching.
	_ = st.run("matching.konig_cover", func() error {
		matching.KonigVertexCoverCSR(res.c, res.side, res.mate)
		return nil
	})

	mb := func(b uint64) float64 { return float64(b) / (1 << 20) }
	perCall := func(s *stageTimes, name string) time.Duration { return s.dur[name] / time.Duration(s.calls[name]) }
	var stagesSum time.Duration
	for _, name := range st.order {
		n := st.calls[name]
		r.add(name+".ms", ms(perCall(st, name)), "ms", n, "mean per iteration")
		r.add(name+".alloc_mb", mb(st.alloc[name]/uint64(n)), "MB", n, "mean per iteration")
		if _, ok := one.dur[name]; ok {
			stagesSum += perCall(st, name)
			short := name[strings.IndexByte(name, '.')+1:]
			r.add("par.speedup."+short, float64(one.dur[name])/float64(perCall(st, name)), "x", n, fmt.Sprintf("1 thread / %d threads", runtime.NumCPU()))
		}
	}
	r.add("par.speedup.total", float64(one.total())/float64(stagesSum), "x", tracedPairs, "")
	r.add("par.imbalance", imbalance, "ratio", 1, "max over mean worker busy time of the last parallel region (par gauge)")
	r.add("graph.csr.bytes_mb", mb(uint64(len(res.c.RowPtr)+len(res.c.Col))*4), "MB", 1, "RowPtr + Col, computed")
	r.add("matching.hk_phases", float64(hkPhases), "count", 1, "phases of one Hopcroft–Karp run")
	r.add("matching.hopcroft_karp.calls_per_solve", float64(iterPh)/float64(max(hkPhases, 1)), "count", 1, "all phases of the iteration / phases of one run")
	r.add("gc.cycles_per_op", float64(use.gcCycles)/tracedPairs, "count", tracedPairs, "untraced iterations")
	r.add("gc.pause_ms", ms(use.gcPause)/tracedPairs, "ms", tracedPairs, "untraced iterations")
	r.add("trace.overhead_pct", 100*(traced.Seconds()-untraced.Seconds())/untraced.Seconds(), "%", tracedPairs, "traced vs untraced iterations, alternated")

	var lines []budgetLine
	for _, name := range st.order[:len(st.order)-1] { // without the König cover
		lines = append(lines, budgetLine{name, ms(perCall(st, name))})
	}
	tracedMS, untracedMS := ms(traced)/tracedPairs, ms(untraced)/tracedPairs
	logBudget(r, lines, tracedMS, "tracing and glue between stages")
	r.logf("# budget workload=%s stages_sum_ms=%.6g traced_ms=%.6g untraced_ms=%.6g (means over %d alternated iterations; cover.partition_csr contains a second 2-colouring and Hopcroft–Karp like the ones above, and a König cover of %.6g ms)",
		r.workload, ms(stagesSum), tracedMS, untracedMS, tracedPairs, ms(st.dur["matching.konig_cover"]))
	return nil
}
