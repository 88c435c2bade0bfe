package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/server"
)

// Self-test of the harness at toy sizes: input determinism, percentile
// rules, open-loop accounting and the output checks.

func bodies(reqs []*request) [][]byte {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		out[i] = r.body
	}
	return out
}

func sameBodies(a, b [][]byte) bool {
	return slices.EqualFunc(a, b, bytes.Equal)
}

func TestInputsFollowTheSeed(t *testing.T) {
	plan := planFor(0.4)
	for _, spec := range serveSpecs {
		a, err := genServeInputs(spec, 7, plan, true)
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		b, _ := genServeInputs(spec, 7, plan, true)
		c, _ := genServeInputs(spec, 8, plan, true)
		all := func(in serveInputs) [][]byte {
			out := bodies(slices.Concat(in.warm, in.serial, in.nominal, in.saturate))
			for _, pair := range in.hot {
				out = append(out, pair[0].body, pair[1].body)
			}
			return out
		}
		if !sameBodies(all(a), all(b)) {
			t.Errorf("%s: seed 7 gave two different input sets", spec.name)
		}
		if sameBodies(all(a), all(c)) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", spec.name)
		}
	}
	s1, s2, s3 := genSparse(7, 2000), genSparse(7, 2000), genSparse(8, 2000)
	if !slices.Equal(s1.us, s2.us) || !slices.Equal(s1.vs, s2.vs) {
		t.Error("sparse: seed 7 gave two different graphs")
	}
	if slices.Equal(s1.vs, s3.vs) {
		t.Error("sparse: seeds 7 and 8 gave the same graph")
	}
}

func TestServeLPRequestsAreDistinct(t *testing.T) {
	reqs, err := lpStream(rand.New(rand.NewSource(1)), 300)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range reqs {
		key := cacheKey(r.g6, r.k, r.nu)
		if seen[key] {
			t.Fatalf("request %s repeats a cache key", r.kind)
		}
		seen[key] = true
	}
}

func TestGraph6MatchesTheProgram(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, g := range []*graph.Graph{tree(rng, 5), cycle(rng, 62), gnm(rng, 63, 100), matched(rng, 256, 700)} {
		want, err := graph.FormatGraph6(g)
		if err != nil {
			t.Fatal(err)
		}
		if got := graph6(g); got != want {
			t.Errorf("n=%d: graph6 %q, program %q", g.NumVertices(), got, want)
		}
	}
}

func TestNearestRankAndTail(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	if got := nearestRank(seq(10), 0.5); got != 5 {
		t.Errorf("p50 of 1..10 = %v, want 5", got)
	}
	if got := nearestRank(seq(10), 0.91); got != 10 {
		t.Errorf("p91 of 1..10 = %v, want 10", got)
	}
	cases := []struct {
		n      int
		value  float64
		q      float64
		beyond int
	}{
		{2000, 1980, 0.99, 20}, // p99 has 20 beyond: kept
		{1000, 990, 0.99, 10},  // exactly 10 beyond: kept
		{100, 90, 0.9, 10},     // p99 would have 1 beyond: fall back to p90
		{11, 1, 1.0 / 11, 10},  // the lowest rank is the only one with 10 beyond
		{10, 10, 1, 0},         // no rank has 10 beyond: the maximum
	}
	for _, c := range cases {
		got := tail(seq(c.n), 0.99)
		if got.Value != c.value || got.Beyond != c.beyond || got.Q != c.q {
			t.Errorf("tail of 1..%d = %+v, want value %v q %v beyond %d", c.n, got, c.value, c.q, c.beyond)
		}
	}
}

// fakeServer answers POST /v1/solve with respond(i) for the i-th request.
func fakeServer(t *testing.T, respond func(i int, w http.ResponseWriter)) *client {
	t.Helper()
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		respond(int(n.Add(1)-1), w)
	}))
	t.Cleanup(ts.Close)
	return newClients(ts.URL, 1)[0]
}

// answer is a correct solve response body for req.
func answer(t *testing.T, req *request, mutate func(*server.SolveResult)) []byte {
	t.Helper()
	res := &server.SolveResult{
		Graph6: req.g6, N: req.n, M: req.m, K: req.k, Attackers: req.nu,
		MixedNE:   &server.MixedNE{Family: "k-matching", DefenderGain: "2/5", HitProbability: "1/5"},
		GameValue: "1/5",
	}
	if mutate != nil {
		mutate(res)
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(server.SolveResponse{Result: res}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func toyRequest(t *testing.T) *request {
	t.Helper()
	req, err := newRequest("toy", graph.Path(4), 1, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

func TestOpenLoopChargesFromTheDueTime(t *testing.T) {
	req := toyRequest(t)
	body := answer(t, req, nil)
	c := fakeServer(t, func(i int, w http.ResponseWriter) {
		if i == 0 {
			time.Sleep(60 * time.Millisecond) // a stall: the next request cannot leave on time
		}
		w.Write(body)
	})
	outs := openLoop([]*client{c}, []*request{req, req, req}, 100) // due at 0, 10, 20 ms
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
	}
	second := outs[1]
	if late := second.sent - second.due; late < 40*time.Millisecond {
		t.Errorf("second request left %v after its due time, want >= 40ms behind the stall", late)
	}
	if second.latency() < second.done-second.sent+40*time.Millisecond {
		t.Errorf("latency %v does not include the %v spent waiting to be sent", second.latency(), second.sent-second.due)
	}
	if second.woke {
		t.Error("a request sent late behind a busy client is not generator lag")
	}
}

func TestCorruptedAnswersCountAsFailed(t *testing.T) {
	req := toyRequest(t)
	corruptions := []func(*server.SolveResult){
		func(r *server.SolveResult) { r.Graph6 = "C~" },
		func(r *server.SolveResult) { r.K = 2 },
		func(r *server.SolveResult) { r.Attackers = 1 },
		func(r *server.SolveResult) { r.GameValue = "6/5" },
		func(r *server.SolveResult) { r.GameValue = "0" },
		func(r *server.SolveResult) { r.MixedNE.HitProbability = "1/4" },
		func(r *server.SolveResult) { r.MixedNE.DefenderGain = "1/5" },
		func(r *server.SolveResult) { r.MixedNE = nil },
	}
	if _, err := checkAnswer(mustResult(t, answer(t, req, nil)), req); err != nil {
		t.Fatalf("the uncorrupted answer fails its check: %v", err)
	}
	for i, corrupt := range corruptions {
		body := answer(t, req, corrupt)
		c := fakeServer(t, func(_ int, w http.ResponseWriter) { w.Write(body) })
		st := summarize(openLoop([]*client{c}, []*request{req}, 1000), 100)
		if st.failed != 1 || st.wrong != 1 || st.withinLimit != 0 {
			t.Errorf("corruption %d: failed=%d wrong=%d within=%d, want 1, 1, 0", i, st.failed, st.wrong, st.withinLimit)
		}
	}

	// A cache hit must repeat the primed answer byte for byte.
	hot := toyRequest(t)
	hot.hot = &hotEntry{result: mustResult(t, answer(t, hot, nil)), family: "k-matching"}
	other := answer(t, hot, func(r *server.SolveResult) { r.Notes = []string{"changed"} })
	c := fakeServer(t, func(_ int, w http.ResponseWriter) { w.Write(other) })
	var o outcome
	c.send(hot, &o)
	if !errors.Is(o.err, errWrong) || !o.wrong {
		t.Errorf("a hit differing from the primed answer gave err=%v wrong=%v", o.err, o.wrong)
	}

	// Refusals fail without being wrong answers; every other status, and a
	// 202 job that ends failed for any reason but its deadline, is wrong.
	for status, wrong := range map[int]bool{
		http.StatusTooManyRequests: false, http.StatusServiceUnavailable: false, http.StatusGatewayTimeout: false,
		http.StatusInternalServerError: true, http.StatusUnprocessableEntity: true, http.StatusBadRequest: true, http.StatusNotFound: true,
	} {
		c = fakeServer(t, func(_ int, w http.ResponseWriter) { w.WriteHeader(status) })
		c.send(req, &o)
		if o.err == nil || o.wrong != wrong {
			t.Errorf("status %d gave err=%v wrong=%v, want a failure with wrong=%v", status, o.err, o.wrong, wrong)
		}
	}
	for code, wrong := range map[string]bool{server.CodeTimeout: false, server.CodeInternal: true} {
		c = fakeServer(t, func(i int, w http.ResponseWriter) {
			if i == 0 {
				w.WriteHeader(http.StatusAccepted)
				json.NewEncoder(w).Encode(server.JobStatus{ID: "j1", Status: server.JobPending, Poll: "/v1/jobs/j1"})
				return
			}
			json.NewEncoder(w).Encode(server.JobStatus{ID: "j1", Status: server.JobFailed, Error: &server.ErrorInfo{Code: code}})
		})
		c.send(req, &o)
		if o.err == nil || !o.accepted || o.wrong != wrong {
			t.Errorf("job failed with %s gave err=%v accepted=%v wrong=%v, want a failure with wrong=%v", code, o.err, o.accepted, o.wrong, wrong)
		}
	}
}

// TestServerErrorMakesTheRunIncorrect runs requests against a server that
// answers one of them with a 500: the run's result must read correct:false.
func TestServerErrorMakesTheRunIncorrect(t *testing.T) {
	req := toyRequest(t)
	body := answer(t, req, nil)
	c := fakeServer(t, func(i int, w http.ResponseWriter) {
		if i == 3 {
			http.Error(w, `{"error":{"code":"internal","message":"solve failed"}}`, http.StatusInternalServerError)
			return
		}
		w.Write(body)
	})
	st := summarize(openLoop([]*client{c}, []*request{req, req, req, req, req}, 1000), 100)
	r := &report{workload: "toy"}
	r.addOps(st.sent, st.failed, st.wrong)
	var out bytes.Buffer
	if err := r.write(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 5 || res.Failed != 1 {
		t.Errorf("result %+v, want correct=false attempted=5 failed=1", res)
	}
}

func mustResult(t *testing.T, body []byte) []byte {
	t.Helper()
	raw, err := solveResult(body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestRealServerAnswersPass runs a few requests of each serve workload
// through the real server; every answer must pass its checks.
func TestRealServerAnswersPass(t *testing.T) {
	env, err := startServer()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := env.stop(); err != nil {
			t.Error(err)
		}
	}()
	rng := rand.New(rand.NewSource(5))
	lp, err := lpStream(rng, len(lpStrata))
	if err != nil {
		t.Fatal(err)
	}
	large, err := largeStream(rng, len(largeFamilies))
	if err != nil {
		t.Fatal(err)
	}
	set, err := hotSet(rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := prime(env.clients[0], set); err != nil {
		t.Fatal(err)
	}
	reqs := slices.Concat(lp, large, hotStream(rng, set, 50))
	outs, _ := closedLoop(env.clients, reqs, time.Minute)
	for i, o := range outs {
		if o.err != nil {
			t.Errorf("%s: %v", reqs[i].kind, o.err)
		}
		if strings.TrimSpace(o.family) == "" {
			t.Errorf("%s: no family", reqs[i].kind)
		}
	}
}

func TestSparseToyIterationPasses(t *testing.T) {
	in := genSparse(3, 5000)
	for _, traced := range []bool{false, true} {
		res, err := sparseIteration(in, traced, callStep)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkSparse(res); err != nil {
			t.Errorf("traced=%v: %v", traced, err)
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric lists of main.go in
// step with BENCHMARK.json, which names every metric a result must carry.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricSpec struct{ Name, Unit string }
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ms []metricSpec) []string {
		out := make([]string, len(ms))
		for i, m := range ms {
			out[i] = m.Name
		}
		return out
	}
	if got := names(spec.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, main.go %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json %v, main.go %v", got, perLayer)
	}
	for _, m := range spec.PerLayer {
		if u := unitOf(m.Name); u != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q from its name", m.Name, m.Unit, u)
		}
	}
}
