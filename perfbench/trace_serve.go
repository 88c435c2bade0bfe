package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/defender-game/defender/internal/core"
	"github.com/defender-game/defender/internal/cover"
	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/obs"
	"github.com/defender-game/defender/internal/server"
)

// traceServe is the traced serve run. It repeats the closed-loop phase
// (the unloaded blocking path), runs the nominal phase loaded with the
// server's own registry counting from zero and snapshots it, and steps
// through the rate ladder. It then replays the closed-loop requests
// serially through the public layer calls the handler makes, with the
// benchmark's spans and without them, and divides each request's
// closed-loop latency into the stages.
func traceServe(r *report, spec serveSpec, env *serveEnv, in serveInputs, plan phasePlan) error {
	env.clients[0].keep = !spec.hot // misses are replayed from the answers they got
	serialOuts, _ := closedLoop(env.clients[:1], in.serial, plan.serial)
	env.clients[0].keep = false
	serial := summarize(serialOuts, spec.limitMS)
	logKinds(r, in.serial, serialOuts)

	// The server's own counters are read from registry snapshots by name.
	reg := obs.Default()
	primed := reg.Snapshot().Gauges["server.cache.entries"]
	reg.Reset()
	before := usageNow()
	nomOuts := openLoop(env.clients, in.nominal, spec.rate())
	use := usageNow().since(before)
	nom := summarize(nomOuts, spec.limitMS)
	r.addOps(serial.sent+nom.sent, serial.failed+nom.failed, serial.wrong+nom.wrong)

	snap := reg.Snapshot()
	hits, misses := snap.Counters["server.cache.hits"], snap.Counters["server.cache.misses"]
	ops := float64(nom.sent)
	r.add("server.cache.hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio", int(hits+misses), "server counters")
	r.add("server.cache.entries", max(primed, snap.Gauges["server.cache.entries"]), "count", 1, "server gauge")
	wait, run := snap.Histograms["broker.queue_wait.seconds"], snap.Histograms["broker.run_seconds"]
	r.add("broker.queue_wait.p50_ms", 1000*wait.P50, "ms", int(wait.Count), "server histogram, bucket resolution")
	r.add("broker.queue_wait.p99_ms", 1000*wait.P99, "ms", int(wait.Count), "server histogram, bucket resolution")
	r.add("broker.run.p50_ms", 1000*run.P50, "ms", int(run.Count), "server histogram, bucket resolution")
	r.add("broker.rejected", float64(snap.Counters["broker.rejected"]), "count", 1, "server counter")
	r.add("lp.solves_per_op", float64(snap.Counters["lp.simplex.solves"])/ops, "count", nom.sent, "lp counters over nominal requests")
	r.add("lp.pivots_per_op", float64(snap.Counters["lp.simplex.pivots"])/ops, "count", nom.sent, "lp counters over nominal requests")
	r.add("gc.cycles_per_op", float64(use.gcCycles)/ops, "count", nom.sent, "nominal phase")
	r.add("gc.pause_ms", ms(use.gcPause)/ops, "ms", nom.sent, "stop-the-world pause per nominal request")
	r.add("loadgen.lag_p99_ms", nom.lag.Value, "ms", nom.sent, fmt.Sprintf("lateness of an idle client waking for a due request, p%.4g", 100*nom.lag.Q))
	r.add("loadgen.sent", ops, "count", 1, "")
	r.add("loadgen.ok", float64(nom.ok), "count", 1, "")
	r.add("loadgen.failed", float64(nom.failed), "count", 1, "")
	r.add("loadgen.accepted_202", float64(nom.accepted), "count", 1, "")
	// The solver layers' times come from the program's own spans, as the
	// loaded server ran them.
	for metric, span := range spanMetrics {
		h := snap.Histograms[span+".seconds"]
		r.add(metric, 1000*h.Sum/float64(max(h.Count, 1)), "ms", int(h.Count), "server span "+span+" over the nominal phase, mean per call")
	}
	for _, fam := range []string{"k-matching", "perfect-matching", "regular", "lp-minimax"} {
		r.add("core.family."+strings.ReplaceAll(fam, "-", "_"), float64(nom.families[fam])/float64(max(nom.ok, 1)), "ratio", nom.ok, "share of correct nominal answers")
	}

	// The ladder shows latency against load; it stops at the first rate
	// that misses the limit, fails a request or builds a backlog.
	for i, rate := range spec.ladder() {
		st := summarize(openLoop(env.clients, in.rungs[i], rate), spec.limitMS)
		r.addOps(st.sent, st.failed, st.wrong)
		r.logf("# rung workload=%s rate=%.4g rps sent=%d ok=%d failed=%d p50=%.4g ms p%.4g=%.4g ms (beyond=%d) lag_p99=%.4g ms backlog=%v pass=%v",
			spec.name, rate, st.sent, st.ok, st.failed, st.p50, 100*st.p99.Q, st.p99.Value, st.p99.Beyond, st.lag.Value, st.backlog, st.pass(spec.limitMS))
		if !st.pass(spec.limitMS) {
			break
		}
	}

	// Replay: chunks of the closed-loop requests, each run with the spans
	// and without them in turn (which goes first alternates), until the
	// nominal phase's time is spent. Alternating keeps the machine's drift
	// out of trace.overhead_pct.
	var replayed []int
	for i := range serialOuts {
		if serialOuts[i].err == nil {
			replayed = append(replayed, i)
		}
	}
	traced, plain := newReplay(newStageTimes(), in.hot), newReplay(nil, in.hot)
	var tracedWall, plainWall time.Duration
	pass := func(rp *replay, part []int) (time.Duration, error) {
		start := time.Now()
		for _, i := range part {
			if err := rp.one(in.serial[i], serialOuts[i].raw); err != nil {
				return 0, fmt.Errorf("replay %s: %w", in.serial[i].kind, err)
			}
		}
		return time.Since(start), nil
	}
	runtime.GC()
	count, start := 0, time.Now()
	for chunk := 0; count < len(replayed) && time.Since(start) < plan.nominal; chunk++ {
		part := replayed[count:min(count+replayChunk, len(replayed))]
		for turn := 0; turn < 2; turn++ {
			if (chunk+turn)%2 == 0 {
				d, err := pass(traced, part)
				if err != nil {
					return err
				}
				tracedWall += d
			} else {
				d, err := pass(plain, part)
				if err != nil {
					return err
				}
				plainWall += d
			}
		}
		count += len(part)
	}
	replayed = replayed[:count]
	var blocking []float64
	for _, i := range replayed {
		blocking = append(blocking, ms(serialOuts[i].latency()))
	}

	st, n := traced.st, traced.requests
	for _, name := range st.order {
		if _, ok := spanMetrics[name+".ms"]; !ok {
			r.add(name+".ms", perOp(st.dur[name], st.calls[name]), "ms", st.calls[name], "replay, mean per call")
		}
	}
	encodes := st.calls["server.encode"]
	r.add("server.encode.kb", traced.bodyBytes/1024/float64(max(encodes, 1)), "KB", encodes, "mean response body")
	r.add("server.encode.alloc_kb", float64(st.alloc["server.encode"])/1024/float64(max(encodes, 1)), "KB", encodes, "mean allocation per encode")
	if gv := st.calls["core.game_value"]; gv > 0 {
		r.add("core.game_value.tuples", float64(traced.tuples)/float64(gv), "count", gv, "mean C(m,k) enumerated; 0 when over the LP budget")
		r.add("core.game_value.alloc_kb", float64(st.alloc["core.game_value"])/1024/float64(gv), "KB", gv, "mean allocation per call")
	}
	r.add("trace.overhead_pct", 100*(tracedWall.Seconds()-plainWall.Seconds())/plainWall.Seconds(), "%", n, "replay with spans vs without")

	var lines []budgetLine
	for _, name := range st.order {
		lines = append(lines, budgetLine{name, perOp(st.dur[name], n)})
	}
	logBudget(r, lines, mean(blocking), "HTTP, broker hand-off, result rendering and the client")
	r.logf("# budget workload=%s blocking_path_ms=%.6g (mean closed-loop latency of the %d replayed requests)", r.workload, mean(blocking), n)
	return nil
}

// spanMetrics maps each solver-layer metric to the span the program
// opens around that layer's call in the handler.
var spanMetrics = map[string]string{
	"cover.edge_cover_number.ms": "cover.gallai",
	"core.solve_any.ms":          "core.solve_any",
	"core.game_value.ms":         "core.game_value",
}

// replayChunk is how many requests a replay chunk holds.
const replayChunk = 50

// logKinds prints the median closed-loop latency of each request kind.
func logKinds(r *report, reqs []*request, outs []outcome) {
	byKind := map[string][]float64{}
	for i, o := range outs {
		byKind[reqs[i].kind] = append(byKind[reqs[i].kind], ms(o.latency()))
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		r.logf("# kind workload=%s kind=%s n=%d median_ms=%.4g", r.workload, k, len(byKind[k]), median(byKind[k]))
	}
}

// replay repeats what the handler does for a request, one public call per
// stage: JSON decode and graph.ParseGraph6 (or the edge list) with the
// handler's validity checks, the graph6 key, a cache lookup, and on a miss
// cover.EdgeCoverNumberCtx, core.SolveAnyCtx and core.GameValueCtx, then
// the indented JSON encode of the response. The result encoded for a miss
// is the one the server answered with in the loaded run. The decode, key
// and encode stages are a copy of decodeSolveRequest, buildGraph and
// writeJSON in internal/server (without the body-size cap, which needs a
// ResponseWriter) and must be kept in step with them: a change to the
// handler moves server.decode.ms, server.key.ms and server.encode.* only
// once it is copied here.
type replay struct {
	st        *stageTimes // nil for the untraced pass
	cache     map[string]*server.SolveResult
	requests  int
	bodyBytes float64
	tuples    int
}

// maxVertices is the server's default vertex cap.
const maxVertices = 256

func newReplay(st *stageTimes, hot [][2]*request) *replay {
	rp := &replay{st: st, cache: map[string]*server.SolveResult{}}
	for _, pair := range hot {
		res := new(server.SolveResult)
		if json.Unmarshal(pair[0].hot.result, res) == nil {
			rp.cache[cacheKey(pair[0].g6, pair[0].k, pair[0].nu)] = res
		}
	}
	return rp
}

func cacheKey(g6 string, k, nu int) string {
	return g6 + "|k=" + strconv.Itoa(k) + "|nu=" + strconv.Itoa(nu)
}

func (rp *replay) stage(name string, fn func() error) error {
	if rp.st == nil {
		return fn()
	}
	return rp.st.run(name, fn)
}

func (rp *replay) one(req *request, raw []byte) error {
	rp.requests++
	var (
		sr  server.SolveRequest
		g   *graph.Graph
		key string
	)
	err := rp.stage("server.decode", func() error {
		dec := json.NewDecoder(bytes.NewReader(req.body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sr); err != nil {
			return err
		}
		if dec.More() {
			return errors.New("trailing data after the request object")
		}
		if sr.Attackers == 0 {
			sr.Attackers = 1
		}
		if sr.Graph6 != "" {
			var err error
			if g, err = graph.ParseGraph6(sr.Graph6); err != nil {
				return err
			}
		} else {
			g = graph.New(sr.N)
			for _, e := range sr.Edges {
				if err := g.AddEdge(e[0], e[1]); err != nil {
					return err
				}
			}
		}
		switch {
		case g.NumVertices() > maxVertices:
			return fmt.Errorf("n=%d over the %d-vertex cap", g.NumVertices(), maxVertices)
		case g.HasIsolatedVertex():
			return errors.New("isolated vertex")
		case sr.K < 1 || sr.K > g.NumEdges():
			return fmt.Errorf("k=%d outside 1..%d", sr.K, g.NumEdges())
		}
		return nil
	})
	if err == nil {
		err = rp.stage("server.key", func() error {
			g6, err := graph.FormatGraph6(g)
			key = cacheKey(g6, sr.K, sr.Attackers)
			return err
		})
	}
	if err != nil {
		return err
	}
	res, hit := rp.cache[key]
	if !hit {
		ctx := context.Background()
		steps := []step{
			{"cover.edge_cover_number", func() error { _, err := cover.EdgeCoverNumberCtx(ctx, g); return err }},
			{"core.solve_any", func() error { _, _, err := core.SolveAnyCtx(ctx, g, sr.Attackers, sr.K); return err }},
			{"core.game_value", func() error {
				_, tuples, _, err := core.GameValueCtx(ctx, g, sr.K)
				if errors.Is(err, core.ErrValueTooLarge) {
					return nil
				}
				rp.tuples += len(tuples)
				return err
			}},
		}
		for _, s := range steps {
			if err := rp.stage(s.name, s.fn); err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
		}
		res = new(server.SolveResult)
		if err := json.Unmarshal(raw, res); err != nil {
			return err
		}
		rp.cache[key] = res
	}
	var body bytes.Buffer
	err = rp.stage("server.encode", func() error {
		enc := json.NewEncoder(&body)
		enc.SetIndent("", "  ")
		return enc.Encode(server.SolveResponse{Result: res, Cached: hit, SolveMS: 1})
	})
	rp.bodyBytes += float64(body.Len())
	return err
}
