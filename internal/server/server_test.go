package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/defender-game/defender/internal/core"
	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/matching"
	"github.com/defender-game/defender/internal/obs"
)

// TestMain enables the default registry: the accounting tests read the
// server.* counters, and running the whole suite with metrics on proves
// recording never changes responses.
func TestMain(m *testing.M) {
	obs.Default().SetEnabled(true)
	m.Run()
}

// newTestServer builds a server with fast test defaults; callers may
// mutate cfg via the variadic tweak.
func newTestServer(t *testing.T, tweaks ...func(*Config)) *Server {
	t.Helper()
	cfg := Config{Workers: 2, QueueCap: 16, SyncWait: 30 * time.Second, SolveTimeout: 30 * time.Second, MaxVertices: 64}
	for _, tw := range tweaks {
		tw(&cfg)
	}
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s
}

// do runs one request through the handler without a network hop.
func do(s *Server, method, path, body string) *httptest.ResponseRecorder {
	var rd *bytes.Reader
	if body == "" {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader([]byte(body))
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func decodeSolve(t *testing.T, w *httptest.ResponseRecorder) SolveResponse {
	t.Helper()
	var resp SolveResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding solve response: %v\nbody: %s", err, w.Body.String())
	}
	return resp
}

func decodeError(t *testing.T, w *httptest.ResponseRecorder) ErrorBody {
	t.Helper()
	var eb ErrorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
		t.Fatalf("decoding error body: %v\nbody: %s", err, w.Body.String())
	}
	return eb
}

func counterDelta(names []string, fn func()) map[string]uint64 {
	before := make(map[string]uint64, len(names))
	for _, n := range names {
		before[n] = obs.Default().Counter(n).Value()
	}
	fn()
	d := make(map[string]uint64, len(names))
	for _, n := range names {
		d[n] = obs.Default().Counter(n).Value() - before[n]
	}
	return d
}

func TestSolveCycleKMatching(t *testing.T) {
	s := newTestServer(t)
	w := do(s, http.MethodPost, "/v1/solve",
		`{"n":6,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[0,5]],"k":2,"attackers":4}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeSolve(t, w)
	r := resp.Result
	if r == nil {
		t.Fatal("nil result")
	}
	if r.N != 6 || r.M != 6 || r.K != 2 || r.Attackers != 4 {
		t.Errorf("instance echo wrong: %+v", r)
	}
	if r.Rho != 3 || r.PureNE {
		t.Errorf("C6: rho=%d pure=%v, want rho=3 pure=false at k=2", r.Rho, r.PureNE)
	}
	if r.MixedNE == nil || r.MixedNE.Family != "k-matching" {
		t.Fatalf("expected a k-matching NE, got %+v", r.MixedNE)
	}
	// C6 at k=2: the attacker support is the size-3 independent set, the
	// arrest probability k/|E(D(tp))| = 2/3, defender gain k·ν/|IS| = 8/3.
	if r.MixedNE.HitProbability != "2/3" {
		t.Errorf("hit probability = %q, want 2/3", r.MixedNE.HitProbability)
	}
	if r.MixedNE.DefenderGain != "8/3" {
		t.Errorf("defender gain = %q, want 8/3", r.MixedNE.DefenderGain)
	}
	if r.GameValue != "2/3" || r.GameValueSource != "lp" {
		t.Errorf("game value = %q (%s), want 2/3 from lp", r.GameValue, r.GameValueSource)
	}
	if resp.Cached {
		t.Error("first solve reported cached")
	}
	if len(r.MixedNE.Tuples) != r.MixedNE.TupleCount || len(r.MixedNE.TupleProbs) != r.MixedNE.TupleCount {
		t.Errorf("tuple rendering mismatch: %d tuples, %d probs, count %d",
			len(r.MixedNE.Tuples), len(r.MixedNE.TupleProbs), r.MixedNE.TupleCount)
	}
	if r.Graph6 == "" {
		t.Error("missing canonical graph6 echo")
	}
}

// TestSolveKEGraphWithoutPerfectMatching: a 32-vertex non-bipartite graph
// with a Cor 4.11 partition that greedy maximal independent sets miss,
// and no perfect matching. At k = 4 its tuple space C(50,4) is over the
// LP budget, so only the k-matching family can answer.
func TestSolveKEGraphWithoutPerfectMatching(t *testing.T) {
	g6, err := os.ReadFile("../cover/testdata/greedy_miss.g6")
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(SolveRequest{Graph6: strings.TrimSpace(string(g6)), K: 4, Attackers: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := do(newTestServer(t), http.MethodPost, "/v1/solve", string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	r := decodeSolve(t, w).Result
	if r == nil || r.MixedNE == nil || r.MixedNE.Family != "k-matching" {
		t.Fatalf("want a k-matching NE, got %+v", r)
	}
	if r.GameValueSource != "closed-form" {
		t.Errorf("game value source = %q, want closed-form", r.GameValueSource)
	}
}

// TestSolveCacheSharedAcrossSpellings: the same graph submitted as an
// edge list and as graph6 hits one cache entry, and the hit is flagged.
func TestSolveCacheSharedAcrossSpellings(t *testing.T) {
	s := newTestServer(t)
	body1 := `{"n":4,"edges":[[0,1],[1,2],[2,3],[0,3]],"k":1}`
	w := do(s, http.MethodPost, "/v1/solve", body1)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	first := decodeSolve(t, w)
	if first.Cached {
		t.Fatal("first request cached")
	}
	g6 := first.Result.Graph6

	d := counterDelta([]string{"server.cache.hits", "server.cache.misses"}, func() {
		w = do(s, http.MethodPost, "/v1/solve", fmt.Sprintf(`{"graph6":%q,"k":1}`, g6))
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	second := decodeSolve(t, w)
	if !second.Cached {
		t.Error("graph6 spelling of a solved graph missed the cache")
	}
	if d["server.cache.hits"] != 1 || d["server.cache.misses"] != 0 {
		t.Errorf("cache counters: %v", d)
	}
	a, b := first.Result, second.Result
	if a.GameValue != b.GameValue || a.Rho != b.Rho {
		t.Errorf("cached result drifted: %+v vs %+v", a, b)
	}
	// Different k is a different entry.
	w = do(s, http.MethodPost, "/v1/solve", fmt.Sprintf(`{"graph6":%q,"k":2}`, g6))
	if w.Code != http.StatusOK || decodeSolve(t, w).Cached {
		t.Errorf("k=2 must be a fresh solve (status %d)", w.Code)
	}
}

func TestSolveValidationErrors(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"empty body", ``, http.StatusBadRequest, CodeBadRequest},
		{"malformed json", `{"n":4`, http.StatusBadRequest, CodeBadRequest},
		{"unknown field", `{"n":3,"edges":[[0,1],[1,2]],"k":1,"bogus":true}`, http.StatusBadRequest, CodeBadRequest},
		{"trailing data", `{"n":3,"edges":[[0,1],[1,2]],"k":1} {}`, http.StatusBadRequest, CodeBadRequest},
		{"no graph", `{"k":1}`, http.StatusBadRequest, CodeBadRequest},
		{"both graphs", `{"graph6":"Bw","n":3,"edges":[[0,1]],"k":1}`, http.StatusBadRequest, CodeBadRequest},
		{"bad graph6", `{"graph6":"~~~~","k":1}`, http.StatusBadRequest, CodeBadGraph6},
		{"graph6 padding garbage", `{"graph6":"Ao","k":1}`, http.StatusBadRequest, CodeBadGraph6},
		{"self loop", `{"n":2,"edges":[[1,1]],"k":1}`, http.StatusBadRequest, CodeBadGraph},
		{"edge out of range", `{"n":2,"edges":[[0,5]],"k":1}`, http.StatusBadRequest, CodeBadGraph},
		{"negative n", `{"n":-2,"edges":[[0,1]],"k":1}`, http.StatusBadRequest, CodeBadGraph},
		{"graph too large", `{"n":65,"edges":[[0,1]],"k":1}`, http.StatusUnprocessableEntity, CodeGraphTooLarge},
		{"isolated vertex", `{"n":3,"edges":[[0,1]],"k":1}`, http.StatusUnprocessableEntity, CodeIsolatedVertex},
		{"k zero", `{"n":2,"edges":[[0,1]],"k":0}`, http.StatusUnprocessableEntity, CodeBadK},
		{"k over m", `{"n":2,"edges":[[0,1]],"k":5}`, http.StatusUnprocessableEntity, CodeBadK},
		{"bad attackers", `{"n":2,"edges":[[0,1]],"k":1,"attackers":-3}`, http.StatusUnprocessableEntity, CodeBadAttackers},
		{"negative timeout", `{"n":2,"edges":[[0,1]],"k":1,"timeout_ms":-1}`, http.StatusBadRequest, CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := counterDelta([]string{"server.solve.errors"}, func() {
				w := do(s, http.MethodPost, "/v1/solve", tc.body)
				if w.Code != tc.wantStatus {
					t.Fatalf("status %d, want %d (%s)", w.Code, tc.wantStatus, w.Body.String())
				}
				eb := decodeError(t, w)
				if eb.Error.Code != tc.wantCode {
					t.Errorf("code %q, want %q", eb.Error.Code, tc.wantCode)
				}
				if eb.Error.Message == "" {
					t.Error("empty error message")
				}
			})
			if d["server.solve.errors"] != 1 {
				t.Errorf("solve.errors moved by %d, want 1", d["server.solve.errors"])
			}
		})
	}
}

func TestBodyTooLarge(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 128 })
	w := do(s, http.MethodPost, "/v1/solve",
		`{"n":4,"edges":[[0,1],[1,2],[2,3],[0,3]],"k":1,"graph6":"`+strings.Repeat("x", 200)+`"}`)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", w.Code)
	}
	if eb := decodeError(t, w); eb.Error.Code != CodeBodyTooLarge {
		t.Errorf("code %q", eb.Error.Code)
	}
}

func TestMethodAndRouteContract(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		method, path string
		wantStatus   int
		wantCode     string
	}{
		{http.MethodGet, "/v1/solve", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{http.MethodDelete, "/v1/solve", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{http.MethodPost, "/v1/jobs/j00000001", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{http.MethodGet, "/v1/jobs/nope", http.StatusNotFound, CodeNotFound},
		{http.MethodGet, "/v1/jobs/", http.StatusNotFound, CodeNotFound},
		{http.MethodGet, "/v1/jobs/a/b", http.StatusNotFound, CodeNotFound},
		{http.MethodGet, "/nope", http.StatusNotFound, CodeNotFound},
		{http.MethodGet, "/", http.StatusNotFound, CodeNotFound},
	}
	for _, tc := range cases {
		w := do(s, tc.method, tc.path, "")
		if w.Code != tc.wantStatus {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, w.Code, tc.wantStatus)
			continue
		}
		if eb := decodeError(t, w); eb.Error.Code != tc.wantCode {
			t.Errorf("%s %s: code %q, want %q", tc.method, tc.path, eb.Error.Code, tc.wantCode)
		}
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t)
	w := do(s, http.MethodGet, "/healthz", "")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Errorf("healthz: %d %s", w.Code, w.Body.String())
	}
}

// TestAsyncJobFlow scripts the 202 contract with a gated solve: submit →
// 202 + Location, poll pending with Retry-After, release, poll done with
// the real result.
func TestAsyncJobFlow(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, func(c *Config) { c.SyncWait = 10 * time.Millisecond })
	inner := s.solveFn
	s.solveFn = func(ctx context.Context, g *graph.Graph, g6 string, k, attackers int) (*SolveResult, error) {
		<-release
		return inner(ctx, g, g6, k, attackers)
	}

	w := do(s, http.MethodPost, "/v1/solve", `{"n":4,"edges":[[0,1],[1,2],[2,3],[0,3]],"k":1}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("status %d, want 202: %s", w.Code, w.Body.String())
	}
	var js JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &js); err != nil {
		t.Fatal(err)
	}
	if js.Status != JobPending || js.ID == "" {
		t.Fatalf("202 body: %+v", js)
	}
	if loc := w.Header().Get("Location"); loc != js.Poll {
		t.Errorf("Location %q != poll %q", loc, js.Poll)
	}

	w = do(s, http.MethodGet, js.Poll, "")
	if w.Code != http.StatusOK {
		t.Fatalf("poll status %d", w.Code)
	}
	var pending JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &pending); err != nil {
		t.Fatal(err)
	}
	if pending.Status != JobPending {
		t.Fatalf("pending poll: %+v", pending)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("pending poll missing Retry-After")
	}

	close(release)
	deadline := time.After(10 * time.Second)
	var done JobStatus
	for done.Status != JobDone {
		select {
		case <-deadline:
			t.Fatalf("job never completed: %+v", done)
		case <-time.After(5 * time.Millisecond):
		}
		w = do(s, http.MethodGet, js.Poll, "")
		if err := json.Unmarshal(w.Body.Bytes(), &done); err != nil {
			t.Fatal(err)
		}
	}
	if done.Result == nil || done.Result.MixedNE == nil || done.Result.GameValue != "1/2" {
		t.Errorf("C4 k=1 job result: %+v", done.Result)
	}
	// The async result is cached like a sync one.
	w = do(s, http.MethodPost, "/v1/solve", `{"n":4,"edges":[[0,1],[1,2],[2,3],[0,3]],"k":1}`)
	if w.Code != http.StatusOK || !decodeSolve(t, w).Cached {
		t.Errorf("async-solved graph should hit the cache (status %d)", w.Code)
	}
}

// TestAsyncJobFailure: a failing solve surfaces as a failed job with the
// structured error, not a hung handle.
func TestAsyncJobFailure(t *testing.T) {
	boom := fmt.Errorf("synthetic failure")
	s := newTestServer(t, func(c *Config) { c.SyncWait = time.Millisecond })
	s.solveFn = func(ctx context.Context, g *graph.Graph, g6 string, k, attackers int) (*SolveResult, error) {
		time.Sleep(20 * time.Millisecond)
		return nil, boom
	}
	w := do(s, http.MethodPost, "/v1/solve", `{"n":2,"edges":[[0,1]],"k":1}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("status %d, want 202", w.Code)
	}
	var js JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &js); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for js.Status != JobFailed {
		select {
		case <-deadline:
			t.Fatalf("job never failed: %+v", js)
		case <-time.After(5 * time.Millisecond):
		}
		w = do(s, http.MethodGet, js.Poll, "")
		if err := json.Unmarshal(w.Body.Bytes(), &js); err != nil {
			t.Fatal(err)
		}
	}
	if js.Error == nil || js.Error.Code != CodeInternal {
		t.Errorf("failed job error: %+v", js.Error)
	}
	// Failures are not cached: the next request solves again.
	if c := s.cache.Len(); c != 0 {
		t.Errorf("failed solve was cached (%d entries)", c)
	}
}

// TestJobTTLPurge: finished jobs expire after the TTL; pending jobs never
// do.
func TestJobTTLPurge(t *testing.T) {
	s := newTestServer(t)
	now := time.Now()
	s.jobs.now = func() time.Time { return now }
	id := s.jobs.create()
	s.jobs.complete(id, []byte(`{"graph6":"A_"}`), nil)
	pendingID := s.jobs.create()

	if _, ok := s.jobs.get(id); !ok {
		t.Fatal("fresh job missing")
	}
	now = now.Add(s.cfg.JobTTL + time.Second)
	if _, ok := s.jobs.get(id); ok {
		t.Error("expired job still pollable")
	}
	if _, ok := s.jobs.get(pendingID); !ok {
		t.Error("pending job was purged")
	}
	// Unblock the pending handle so Close doesn't wait on it (it has no
	// broker request in this unit test).
	s.jobs.complete(pendingID, nil, errBad(http.StatusInternalServerError, CodeInternal, "abandoned"))
}

// TestJobStoreBoundedWithoutPolls: a server whose 202 clients never poll
// still drops finished jobs once their TTL runs out, because create and
// complete purge too. 1,000 jobs finish with the clock moving a step
// between them; the store must end holding exactly the jobs finished
// within one TTL of the last, and the pending count must return to 0
// after each completion.
func TestJobStoreBoundedWithoutPolls(t *testing.T) {
	result := []byte(strings.Repeat("x", 12<<10))
	for _, tc := range []struct {
		name string
		step time.Duration
		want int // jobs finished within one TTL of the last
	}{
		{"step past the TTL", time.Hour, 1},
		{"step of a quarter TTL", 10 * time.Minute / 4, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newJobStore(10 * time.Minute)
			now := time.Now()
			s.now = func() time.Time { return now }
			for i := 0; i < 1000; i++ {
				s.complete(s.create(), result, nil)
				if s.pending != 0 {
					t.Fatalf("job %d: %d pending after completion, want 0", i, s.pending)
				}
				now = now.Add(tc.step)
			}
			now = now.Add(-tc.step) // back to the last completion
			s.create()              // purges without polling
			s.mu.Lock()
			defer s.mu.Unlock()
			finished := 0
			for id, j := range s.jobs {
				if j.status == JobPending {
					continue
				}
				finished++
				if j.doneAt.Before(now.Add(-s.ttl)) {
					t.Errorf("job %s finished at %v, more than a TTL before %v", id, j.doneAt, now)
				}
			}
			if finished != tc.want || len(s.finished) != tc.want || s.pending != 1 {
				t.Errorf("store holds %d finished jobs (queue %d) and %d pending, want %d and 1",
					finished, len(s.finished), s.pending, tc.want)
			}
		})
	}
}

// TestSolveTimeout: a request deadline shorter than the solve yields the
// structured timeout error on the synchronous path.
func TestSolveTimeout(t *testing.T) {
	s := newTestServer(t)
	s.solveFn = func(ctx context.Context, g *graph.Graph, g6 string, k, attackers int) (*SolveResult, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	w := do(s, http.MethodPost, "/v1/solve", `{"n":2,"edges":[[0,1]],"k":1,"timeout_ms":10}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", w.Code, w.Body.String())
	}
	if eb := decodeError(t, w); eb.Error.Code != CodeTimeout {
		t.Errorf("code %q", eb.Error.Code)
	}
}

// TestQueueFullSheds: with one wedged worker and a one-slot queue,
// further distinct-graph requests get 429 + Retry-After.
func TestQueueFullSheds(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueCap = 1
		c.SyncWait = 50 * time.Millisecond
	})
	s.solveFn = func(ctx context.Context, g *graph.Graph, g6 string, k, attackers int) (*SolveResult, error) {
		<-release
		return &SolveResult{Graph6: g6, N: g.NumVertices(), M: g.NumEdges(), K: k, Attackers: attackers}, nil
	}
	defer close(release)

	// Distinct graphs so nothing coalesces: path graphs of growing size.
	codes := make(chan int, 8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"n":%d,"edges":[%s],"k":1}`, n, pathEdges(n))
			w := do(s, http.MethodPost, "/v1/solve", body)
			codes <- w.Code
			if w.Code == http.StatusTooManyRequests {
				if w.Header().Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				if eb := decodeError(t, w); eb.Error.Code != CodeQueueFull {
					t.Errorf("429 code %q", eb.Error.Code)
				}
			}
		}(i + 2)
	}
	wg.Wait()
	close(codes)
	shed := 0
	for c := range codes {
		if c == http.StatusTooManyRequests {
			shed++
		}
	}
	if shed == 0 {
		t.Error("no request was shed despite a wedged one-slot broker")
	}
}

func pathEdges(n int) string {
	parts := make([]string, 0, n-1)
	for i := 0; i < n-1; i++ {
		parts = append(parts, fmt.Sprintf("[%d,%d]", i, i+1))
	}
	return strings.Join(parts, ",")
}

// TestCacheConservationUnderRace is the PR 3 conservation suite lifted to
// the service: many concurrent clients must observe hits + misses ==
// requests, stores <= misses, and the broker's submitted == completed +
// failed + cancelled — while -race watches the whole path. Half the
// clients spell each graph as an edge list and half as graph6, which is
// looked up before it is parsed. With one graph and the production
// budget it also proves coalescing: the solve runs exactly once. With
// several graphs and a budget of about two answers, entries are evicted
// and solved again while others are hit, and the cache still accounts
// for itself: entries = stores - evictions, and server.cache.bytes is the
// size of what it retains, within the budget.
func TestCacheConservationUnderRace(t *testing.T) {
	t.Run("one_key", func(t *testing.T) {
		d, _, solves := raceCycleSolves(t, cacheBudget, []int{6})
		if d["server.cache.stores"] < 1 {
			t.Errorf("nothing was stored")
		}
		if solves != 1 {
			t.Errorf("solve ran %d times for one key; coalescing should make it exactly 1", solves)
		}
	})
	t.Run("small_budget", func(t *testing.T) {
		const budget = 2 << 10
		d, s, _ := raceCycleSolves(t, budget, []int{5, 6, 7, 8, 9, 10})
		keys, size := s.cache.retained()
		if held := d["server.cache.stores"] - d["server.cache.evictions"]; held != uint64(len(keys)) {
			t.Errorf("stores(%d) - evictions(%d) = %d, but %d entries are held",
				d["server.cache.stores"], d["server.cache.evictions"], held, len(keys))
		}
		if d["server.cache.evictions"] == 0 {
			t.Errorf("nothing was evicted under a %d-byte budget", budget)
		}
		g := obs.Default().Snapshot().Gauges
		if g["server.cache.entries"] != float64(len(keys)) {
			t.Errorf("server.cache.entries = %v, %d entries held", g["server.cache.entries"], len(keys))
		}
		if g["server.cache.bytes"] != float64(size) || size > budget {
			t.Errorf("server.cache.bytes = %v, retained %d bytes, budget %d", g["server.cache.bytes"], size, budget)
		}
	})
}

// raceCycleSolves has concurrent clients request the cycles C_n, n in ns,
// at k=2 round-robin, from a server whose cache holds budget bytes. Even
// clients spell the graph as an edge list, odd ones as graph6. It drains
// the server, checks the request, cache and broker conservation laws,
// and returns the counter deltas, the drained server and the number of
// solves run.
func raceCycleSolves(t *testing.T, budget int, ns []int) (map[string]uint64, *Server, int) {
	t.Helper()
	const clients = 12
	const perClient = 15
	names := []string{
		"server.solve.requests", "server.solve.ok", "server.solve.accepted",
		"server.solve.rejected", "server.solve.errors",
		"server.cache.hits", "server.cache.misses", "server.cache.stores", "server.cache.evictions",
		"broker.submitted", "broker.completed", "broker.failed", "broker.cancelled",
	}
	var bodies [2][]string
	for _, n := range ns {
		bodies[0] = append(bodies[0], cycleBody(n, 2, ""))
		bodies[1] = append(bodies[1], graph6Body(t, graph.Cycle(n), 2))
	}
	var s *Server
	var solves int
	var solvesMu sync.Mutex
	d := counterDelta(names, func() {
		s = newTestServer(t, func(c *Config) { c.QueueCap = clients * perClient })
		s.cache = newSolveCache(budget)
		inner := s.solveFn
		s.solveFn = func(ctx context.Context, g *graph.Graph, g6 string, k, attackers int) (*SolveResult, error) {
			solvesMu.Lock()
			solves++
			solvesMu.Unlock()
			return inner(ctx, g, g6, k, attackers)
		}
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					w := do(s, http.MethodPost, "/v1/solve", bodies[c%2][(c+i)%len(ns)])
					if w.Code != http.StatusOK {
						t.Errorf("status %d: %s", w.Code, w.Body.String())
						return
					}
				}
			}(c)
		}
		wg.Wait()
		// Drain the broker before reading its counters.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Fatal(err)
		}
	})
	total := uint64(clients * perClient)
	if d["server.solve.requests"] != total {
		t.Errorf("requests = %d, want %d", d["server.solve.requests"], total)
	}
	if got := d["server.solve.ok"] + d["server.solve.accepted"] + d["server.solve.rejected"] + d["server.solve.errors"]; got != total {
		t.Errorf("ok+accepted+rejected+errors = %d, want %d (%v)", got, total, d)
	}
	if d["server.cache.hits"]+d["server.cache.misses"] != total {
		t.Errorf("hits(%d)+misses(%d) != lookups(%d)", d["server.cache.hits"], d["server.cache.misses"], total)
	}
	if st := d["server.cache.stores"]; st > d["server.cache.misses"] {
		t.Errorf("stores = %d, want stores <= misses (%d)", st, d["server.cache.misses"])
	}
	if d["broker.submitted"] != d["broker.completed"]+d["broker.failed"]+d["broker.cancelled"] {
		t.Errorf("broker conservation violated: %v", d)
	}
	return d, s, solves
}

// TestServerCloseLeaksNothing: a busy server shuts down without leaking
// workers or job goroutines.
func TestServerCloseLeaksNothing(t *testing.T) {
	before := stableGoroutines(t)
	s := New(Config{Workers: 4, QueueCap: 32, SyncWait: time.Millisecond, MaxVertices: 64})
	for i := 0; i < 20; i++ {
		do(s, http.MethodPost, "/v1/solve", `{"n":5,"edges":[[0,1],[1,2],[2,3],[3,4],[0,4]],"k":1}`)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	after := stableGoroutines(t)
	if after > before {
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}

func stableGoroutines(t *testing.T) int {
	t.Helper()
	last := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(10 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == last {
			return n
		}
		last = n
	}
	return last
}

// cycleBody is a solve request for the cycle C_n at power k.
func cycleBody(n, k int, extra string) string {
	return fmt.Sprintf(`{"n":%d,"edges":[%s,[%d,0]],"k":%d%s}`, n, pathEdges(n), n-1, k, extra)
}

// TestLPMinimaxSolvesOneLP: an lp-minimax request reads its game value
// off the equilibrium's LP instead of solving the same LP a second time.
func TestLPMinimaxSolvesOneLP(t *testing.T) {
	s := newTestServer(t)
	var w *httptest.ResponseRecorder
	d := counterDelta([]string{"lp.simplex.solves"}, func() {
		w = do(s, http.MethodPost, "/v1/solve", cycleBody(5, 2, ""))
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	res := decodeSolve(t, w).Result
	if res.MixedNE == nil || res.MixedNE.Family != "lp-minimax" {
		t.Fatalf("C5 at k=2 must take the lp-minimax family: %+v", res.MixedNE)
	}
	if res.GameValue != "4/5" || res.GameValueSource != "lp" {
		t.Errorf("game value %q from %q, want 4/5 from lp", res.GameValue, res.GameValueSource)
	}
	if d["lp.simplex.solves"] != 1 {
		t.Errorf("lp.simplex.solves advanced by %d, want 1", d["lp.simplex.solves"])
	}
}

// graph6Body is a POST /v1/solve body addressing g by its graph6 key.
func graph6Body(t *testing.T, g *graph.Graph, k int) string {
	t.Helper()
	g6, err := graph.FormatGraph6(g)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{"graph6":%q,"k":%d}`, g6, k)
}

// familyCase is one solve request and the equilibrium family that
// answers it.
type familyCase struct {
	name   string
	g      *graph.Graph
	k      int
	family string
}

// oneMatchingCases are one cache-miss solve per equilibrium family.
var oneMatchingCases = []familyCase{
	{"grid34", graph.Grid(3, 4), 2, "k-matching"},
	{"petersen", graph.Petersen(), 5, "perfect-matching"},
	{"C5", graph.Cycle(5), 2, "lp-minimax"},
	{"C7", graph.Cycle(7), 1, "regular"},
}

// matchingRuns sums the counts of every matching.<engine>.seconds span
// histogram: one per maximum-matching run, whichever engine ran.
func matchingRuns() map[string]uint64 {
	runs := map[string]uint64{}
	for name, h := range obs.Default().Snapshot().Histograms {
		if strings.HasPrefix(name, "matching.") && strings.HasSuffix(name, ".seconds") {
			runs[name] = h.Count
		}
	}
	return runs
}

// TestSolveComputesOneMatching: a cache-miss solve computes one maximum
// matching, whatever family answers. ρ(G), the Cor 4.11 partition and the
// perfect-matching family all read the same mate array, so
// matching.maximum advances by exactly 1 and no other matching engine
// runs.
func TestSolveComputesOneMatching(t *testing.T) {
	for _, tc := range oneMatchingCases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t)
			before := matchingRuns()
			w := do(s, http.MethodPost, "/v1/solve", graph6Body(t, tc.g, tc.k))
			if w.Code != http.StatusOK {
				t.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
			if res := decodeSolve(t, w).Result; res.MixedNE == nil || res.MixedNE.Family != tc.family {
				t.Fatalf("want the %s family: %+v", tc.family, res.MixedNE)
			}
			for name, n := range matchingRuns() {
				want := uint64(0)
				if name == "matching.maximum.seconds" {
					want = 1
				}
				if got := n - before[name]; got != want {
					t.Errorf("%s advanced by %d, want %d", name, got, want)
				}
			}
		})
	}
}

// trianglesAndEdgesBody is the solve request for c disjoint triangles
// plus e disjoint edges at k = 2. The graph has no perfect matching and is
// not König–Egerváry, so it is answered by the lp-minimax family.
func trianglesAndEdgesBody(c, e int, extra string) string {
	parts := make([]string, 0, 3*c+e)
	for i := 0; i < c; i++ {
		u := 3 * i
		parts = append(parts, fmt.Sprintf("[%d,%d],[%d,%d],[%d,%d]", u, u+1, u+1, u+2, u, u+2))
	}
	for i := 0; i < e; i++ {
		u := 3*c + 2*i
		parts = append(parts, fmt.Sprintf("[%d,%d]", u, u+1))
	}
	return fmt.Sprintf(`{"n":%d,"edges":[%s],"k":2%s}`, 3*c+2*e, strings.Join(parts, ","), extra)
}

// TestLPMinimaxDeadlineFreesWorker: the simplex observes the request's
// deadline, so an lp-minimax solve that outlives it returns 504 at its
// next pivot instead of running to completion on the broker's only
// worker. 48 triangles + 56 edges (n = 256, m = 200, 19,900 tuples, at
// both server caps) takes 355 pivots and over half a second to solve on
// 2 cores; the expired request must return within a second of its 50 ms
// deadline, having taken fewer pivots, and the worker must then serve
// the next request.
func TestLPMinimaxDeadlineFreesWorker(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Workers, c.MaxVertices = 1, 256 })
	const fullPivots = 355
	var w *httptest.ResponseRecorder
	start := time.Now()
	d := counterDelta([]string{"lp.simplex.pivots", "broker.cancelled"}, func() {
		w = do(s, http.MethodPost, "/v1/solve", trianglesAndEdgesBody(48, 56, `,"timeout_ms":50`))
	})
	elapsed := time.Since(start)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", w.Code, w.Body.String())
	}
	if eb := decodeError(t, w); eb.Error.Code != CodeTimeout {
		t.Errorf("code %q", eb.Error.Code)
	}
	if elapsed > 50*time.Millisecond+time.Second {
		t.Errorf("expired solve held its worker for %v", elapsed)
	}
	if d["lp.simplex.pivots"] >= fullPivots {
		t.Errorf("expired solve ran %d pivots, the full solve takes %d", d["lp.simplex.pivots"], fullPivots)
	}
	if d["broker.cancelled"] != 1 {
		t.Errorf("broker.cancelled advanced by %d, want 1", d["broker.cancelled"])
	}
	if w := do(s, http.MethodPost, "/v1/solve", `{"n":2,"edges":[[0,1]],"k":1}`); w.Code != http.StatusOK {
		t.Errorf("next request on the freed worker: status %d: %s", w.Code, w.Body.String())
	}
}

// Len reports the number of completed entries.
func (c *solveCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// completeGraph6 spells K_n in graph6 without building the graph: the
// long-form header, then every adjacency bit set, with the final byte's
// padding bits zero.
func completeGraph6(n int) string {
	var sb strings.Builder
	sb.WriteByte('~')
	sb.WriteByte(byte(n>>12&63 + 63))
	sb.WriteByte(byte(n>>6&63 + 63))
	sb.WriteByte(byte(n&63 + 63))
	bits := n * (n - 1) / 2
	full, rest := bits/6, bits%6
	sb.WriteString(strings.Repeat("~", full))
	if rest > 0 {
		sb.WriteByte(byte(63 + (1<<rest-1)<<(6-rest)))
	}
	return sb.String()
}

// TestOversizedGraph6RefusedFromHeader: a graph6 body under MaxBodyBytes
// can still declare thousands of vertices. K_3500 is 1,020,565 bytes of
// JSON; decoding it would build a 6.1-million-edge graph in the handler
// goroutine, outside the broker's bounded pool. The server must answer
// 422 graph_too_large from the header alone.
func TestOversizedGraph6RefusedFromHeader(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxVertices = 256 })
	g6 := completeGraph6(3500)
	if _, err := graph.Graph6Order(g6); err != nil {
		t.Fatalf("fixture is not graph6: %v", err)
	}
	body := `{"graph6":"` + g6 + `","k":1}`
	if len(body) >= 1<<20 {
		t.Fatalf("body is %d bytes, want it under the default 1 MiB MaxBodyBytes", len(body))
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body))
	w := httptest.NewRecorder()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s.Handler().ServeHTTP(w, req)
	runtime.ReadMemStats(&after)

	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %.200s", w.Code, w.Body.String())
	}
	eb := decodeError(t, w)
	if eb.Error.Code != CodeGraphTooLarge || eb.Error.Message != "n=3500 exceeds the server cap of 256 vertices" {
		t.Errorf("error = %+v", eb.Error)
	}
	const limit = 8 << 20
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("refusal allocated %.2f MB", float64(alloc)/(1<<20))
	if alloc > limit {
		t.Errorf("refusing the request allocated %.1f MB, want < %d MB", float64(alloc)/(1<<20), limit>>20)
	}
}

// TestCachedResponseMatchesFreshSolve (ROADMAP item 6, cache correctness):
// the body a warm server returns from its cache is byte-identical to a
// fresh server's cache-miss body, except for the cached flag and the
// volatile solve_ms. So is the body of a server whose cache holds one
// entry, re-sent the request after another answer evicted its own: an
// eviction is visible only as "cached": false. The inputs are one cache
// miss per equilibrium family plus the greedy-miss graph only the exact
// Cor 4.11 route solves.
func TestCachedResponseMatchesFreshSolve(t *testing.T) {
	g6, err := os.ReadFile("../cover/testdata/greedy_miss.g6")
	if err != nil {
		t.Fatal(err)
	}
	greedyMiss, err := graph.ParseGraph6(strings.TrimSpace(string(g6)))
	if err != nil {
		t.Fatal(err)
	}
	cases := append([]familyCase{{"greedy_miss", greedyMiss, 4, "k-matching"}}, oneMatchingCases...)

	normalize := func(t *testing.T, w *httptest.ResponseRecorder, wantCached bool) string {
		t.Helper()
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		if got := decodeSolve(t, w).Cached; got != wantCached {
			t.Fatalf("cached = %v, want %v", got, wantCached)
		}
		return maskVolatile(w.Body.String())
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := graph6Body(t, tc.g, tc.k)
			warm := newTestServer(t)
			normalize(t, do(warm, http.MethodPost, "/v1/solve", body), false)
			hit := normalize(t, do(warm, http.MethodPost, "/v1/solve", body), true)
			w := do(newTestServer(t), http.MethodPost, "/v1/solve", body)
			if fresh := normalize(t, w, false); hit != fresh {
				t.Errorf("cached body differs from a fresh solve:\ncached: %s\nfresh:  %s", hit, fresh)
			}
			if res := decodeSolve(t, w).Result; res.MixedNE == nil || res.MixedNE.Family != tc.family {
				t.Errorf("want the %s family: %+v", tc.family, res.MixedNE)
			}

			tiny := newTestServer(t)
			tiny.cache = newSolveCache(1)
			normalize(t, do(tiny, http.MethodPost, "/v1/solve", body), false)
			d := counterDelta([]string{"server.cache.evictions"}, func() {
				normalize(t, do(tiny, http.MethodPost, "/v1/solve", `{"graph6":"A_","k":1}`), false)
			})
			if d["server.cache.evictions"] != 1 {
				t.Fatalf("the second answer evicted %d entries, want 1", d["server.cache.evictions"])
			}
			if resolved := normalize(t, do(tiny, http.MethodPost, "/v1/solve", body), false); resolved != hit {
				t.Errorf("body solved again after an eviction differs from the cached one:\nagain:  %s\ncached: %s", resolved, hit)
			}
		})
	}
}

// TestRenderMixedNEMatchesProfile: the rendered tuples and their
// probabilities are those of the equilibrium's profile, tuple by tuple,
// for every family, including lp-minimax strategies whose tuples carry
// different probabilities.
func TestRenderMixedNEMatchesProfile(t *testing.T) {
	// The wheel's LP strategy weights rim and spoke tuples differently.
	cases := append(slices.Clone(oneMatchingCases), familyCase{"wheel5", graph.Wheel(5), 1, "lp-minimax"})
	mixed := 0
	for _, tc := range cases {
		ne, family, err := core.SolveAnyFromMatchingCtx(context.Background(), tc.g, matching.Maximum(tc.g), 2, tc.k)
		if err != nil || family != tc.family {
			t.Fatalf("%s: family %q, err %v; want %s", tc.name, family, err, tc.family)
		}
		m := renderMixedNE(tc.g, ne, family, &SolveResult{})
		if len(m.Tuples) != len(ne.Tuples) || len(m.TupleProbs) != len(ne.Tuples) {
			t.Fatalf("%s: rendered %d tuples and %d probabilities for %d support tuples",
				tc.name, len(m.Tuples), len(m.TupleProbs), len(ne.Tuples))
		}
		distinct := map[string]bool{}
		for i, tp := range ne.Tuples {
			if want := renderEdges(tp.Edges(tc.g)); !slices.Equal(m.Tuples[i], want) {
				t.Errorf("%s: tuple %d rendered %v, want %v", tc.name, i, m.Tuples[i], want)
			}
			if want := ne.Profile.TP.Prob(tp).RatString(); m.TupleProbs[i] != want {
				t.Errorf("%s: tuple %d probability %q, want %q", tc.name, i, m.TupleProbs[i], want)
			}
			distinct[m.TupleProbs[i]] = true
		}
		if len(distinct) > 1 {
			mixed++
		}
	}
	if mixed == 0 {
		t.Error("no case rendered a strategy with two different tuple probabilities")
	}
}
