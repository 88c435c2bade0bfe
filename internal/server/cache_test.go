package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/obs"
)

// TestWriteSolvedMatchesEncoder: the bytes writeSolved builds from a
// stored compact result equal the indenting json.Encoder's rendering of
// the whole SolveResponse, for results with and without an equilibrium,
// empty and absent slices, characters the encoder escapes, and solve_ms
// values in both of the encoder's float formats.
func TestWriteSolvedMatchesEncoder(t *testing.T) {
	results := []*SolveResult{
		{Graph6: "A_", N: 2, M: 1, K: 1, Attackers: 1, Rho: 1, PureNE: true,
			MixedNE:   &MixedNE{Family: "k-matching", VPSupport: []int{0, 1}, EdgeSupport: [][2]int{{0, 1}}, TupleCount: 1, Tuples: [][][2]int{{{0, 1}}}, TupleProbs: []string{"1"}, DefenderGain: "1", HitProbability: "1"},
			GameValue: "1", GameValueSource: "lp"},
		{Graph6: "Bw", N: 3, M: 3, K: 2, Attackers: 1,
			Notes: []string{"a <note> & \"quotes\"", "tab\there"}},
		{Graph6: "Bw", MixedNE: &MixedNE{VPSupport: []int{}, EdgeSupport: [][2]int{}}},
	}
	for i, res := range results {
		compact, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		for _, cached := range []bool{false, true} {
			for _, ms := range []float64{0, 1e-7, 0.123456789, 42, 1e21, 3.5e22} {
				want := httptest.NewRecorder()
				writeJSON(want, http.StatusOK, SolveResponse{Result: res, Cached: cached, SolveMS: ms})
				got := httptest.NewRecorder()
				writeSolved(got, compact, cached, ms)
				if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
					t.Errorf("result %d: status/type %d %q, want %d %q", i, got.Code,
						got.Header().Get("Content-Type"), want.Code, want.Header().Get("Content-Type"))
				}
				if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
					t.Errorf("result %d cached=%v ms=%v:\ngot:  %s\nwant: %s", i, cached, ms, got.Body, want.Body)
				}
			}
		}
	}
}

// TestJobBodyMirrorsJobStatus: the job poll's wire type has JobStatus's
// fields under the same JSON names, in the same order, so a done job's
// body stays what encoding a JobStatus would write.
func TestJobBodyMirrorsJobStatus(t *testing.T) {
	a, b := reflect.TypeOf(JobStatus{}), reflect.TypeOf(jobBody{})
	if a.NumField() != b.NumField() {
		t.Fatalf("JobStatus has %d fields, jobBody %d", a.NumField(), b.NumField())
	}
	for i := 0; i < a.NumField(); i++ {
		fa, fb := a.Field(i), b.Field(i)
		if fa.Name != fb.Name || fa.Tag != fb.Tag {
			t.Errorf("field %d: JobStatus %s %q, jobBody %s %q", i, fa.Name, fa.Tag, fb.Name, fb.Tag)
		}
	}
}

// TestGraph6SpellingsHitBeforeParse: a graph6 request is looked up on its
// trimmed string before it is parsed. Whitespace and the ">>graph6<<"
// header hit the canonical entry an edge-list request stored; a spelling
// the strict parser rejects (nonzero padding bits, a long header for a
// small n) is never a key, so it misses and gets the same error as on a
// cold server. A request that fails validation counts neither a hit nor a
// miss.
func TestGraph6SpellingsHitBeforeParse(t *testing.T) {
	s := newTestServer(t)
	if w := do(s, http.MethodPost, "/v1/solve", `{"n":3,"edges":[[0,1],[1,2],[0,2]],"k":1}`); w.Code != http.StatusOK {
		t.Fatalf("priming solve: status %d: %s", w.Code, w.Body.String())
	}
	counters := []string{"server.cache.hits", "server.cache.misses"}
	for _, g6 := range []string{"Bw", " \tBw\n", ">>graph6<<Bw", ">>graph6<< Bw "} {
		var w *httptest.ResponseRecorder
		d := counterDelta(counters, func() {
			w = do(s, http.MethodPost, "/v1/solve", fmt.Sprintf(`{"graph6":%q,"k":1}`, g6))
		})
		if w.Code != http.StatusOK || !decodeSolve(t, w).Cached {
			t.Errorf("%q: status %d, want a cache hit: %s", g6, w.Code, w.Body.String())
		}
		if res := decodeSolve(t, w).Result; res.Graph6 != "Bw" {
			t.Errorf("%q: result graph6 %q, want the canonical Bw", g6, res.Graph6)
		}
		if d["server.cache.hits"] != 1 || d["server.cache.misses"] != 0 {
			t.Errorf("%q: cache counters moved %v", g6, d)
		}
	}
	cold := newTestServer(t)
	for _, g6 := range []string{"Bx", "~??Bw"} {
		body := fmt.Sprintf(`{"graph6":%q,"k":1}`, g6)
		var w *httptest.ResponseRecorder
		d := counterDelta(counters, func() { w = do(s, http.MethodPost, "/v1/solve", body) })
		if w.Code != http.StatusBadRequest || decodeError(t, w).Error.Code != CodeBadGraph6 {
			t.Errorf("%q: status %d, want 400 bad_graph6: %s", g6, w.Code, w.Body.String())
		}
		if want := do(cold, http.MethodPost, "/v1/solve", body); w.Body.String() != want.Body.String() {
			t.Errorf("%q: warm error %s, cold error %s", g6, w.Body, want.Body)
		}
		if d["server.cache.hits"] != 0 || d["server.cache.misses"] != 0 {
			t.Errorf("%q: an invalid request moved the cache counters %v", g6, d)
		}
	}
}

// TestCacheBytesGauge: server.cache.bytes is the sum of every stored
// entry's graph6 key and compact body bytes, and a hit stores nothing.
func TestCacheBytesGauge(t *testing.T) {
	s := newTestServer(t)
	for _, body := range []string{
		`{"n":3,"edges":[[0,1],[1,2],[0,2]],"k":1}`,
		`{"graph6":"Bw","k":2}`,
		`{"graph6":"Bw","k":2}`,
		cycleBody(6, 2, ""),
	} {
		if w := do(s, http.MethodPost, "/v1/solve", body); w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	keys, want := s.cache.retained()
	if len(keys) != 3 {
		t.Errorf("%d entries, want 3", len(keys))
	}
	if got := obs.Default().Snapshot().Gauges["server.cache.bytes"]; got != float64(want) {
		t.Errorf("server.cache.bytes = %v, want %d", got, want)
	}
}

// TestSolveCacheEvictsLeastRecentlyUsed: a store evicts from the least
// recently used end until the retained bytes fit the budget; a Lookup hit
// and a racing leader's hit inside Do both make an entry the most recent;
// and the entry just stored is kept even when it alone exceeds the
// budget. The gauges follow every store, and entries = stores - evictions.
func TestSolveCacheEvictsLeastRecentlyUsed(t *testing.T) {
	ctx := context.Background()
	key := func(g6 string) cacheKey { return cacheKey{g6: g6, k: 1, nu: 1} }
	c := newSolveCache(30)
	// store makes g6's entry size bytes long, key included.
	store := func(g6 string, size int) {
		t.Helper()
		body := bytes.Repeat([]byte{'x'}, size-len(g6))
		if _, err := c.Do(ctx, key(g6), func() ([]byte, error) { return body, nil }); err != nil {
			t.Fatal(err)
		}
	}
	check := func(wantBytes int, want ...string) {
		t.Helper()
		keys, size := c.retained()
		var got []string
		for _, k := range keys {
			got = append(got, k.g6)
		}
		if !reflect.DeepEqual(got, want) || size != wantBytes {
			t.Fatalf("retained %v (%d bytes), want %v (%d bytes)", got, size, want, wantBytes)
		}
		g := obs.Default().Snapshot().Gauges
		if g["server.cache.entries"] != float64(len(want)) || g["server.cache.bytes"] != float64(wantBytes) {
			t.Fatalf("gauges entries=%v bytes=%v, want %d and %d",
				g["server.cache.entries"], g["server.cache.bytes"], len(want), wantBytes)
		}
	}
	names := []string{"server.cache.stores", "server.cache.evictions"}
	d := counterDelta(names, func() {
		store("a", 10)
		store("b", 10)
		store("c", 10)
		check(30, "c", "b", "a")
		if _, ok := c.Lookup(key("a")); !ok {
			t.Fatal("a was not retained")
		}
		store("d", 10) // 40 bytes: b, now the coldest, goes
		check(30, "d", "a", "c")
		if _, err := c.Do(ctx, key("c"), func() ([]byte, error) {
			t.Error("a held key was solved again")
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
		check(30, "c", "d", "a")
		store("e", 15) // 45 bytes: a, then d
		check(25, "e", "c")
		store("big", 100) // over the whole budget: held alone
		check(100, "big")
		store("f", 10)
		check(10, "f")
	})
	if d["server.cache.stores"] != 7 || d["server.cache.evictions"] != 6 {
		t.Errorf("stores %d, evictions %d; want 7 and 6", d["server.cache.stores"], d["server.cache.evictions"])
	}
}

// TestCacheBoundedUnderFlood: a small-budget server flooded with distinct
// answers keeps server.cache.bytes within its budget after every store,
// while a key hit between the stores stays cached throughout.
func TestCacheBoundedUnderFlood(t *testing.T) {
	const budget = 4 << 10
	s := newTestServer(t)
	s.cache = newSolveCache(budget)
	hot := cycleBody(5, 1, "")
	if w := do(s, http.MethodPost, "/v1/solve", hot); w.Code != http.StatusOK {
		t.Fatalf("priming solve: status %d: %s", w.Code, w.Body.String())
	}
	d := counterDelta([]string{"server.cache.stores", "server.cache.evictions"}, func() {
		for n := 6; n <= 30; n++ {
			if w := do(s, http.MethodPost, "/v1/solve", cycleBody(n, 2, "")); w.Code != http.StatusOK {
				t.Fatalf("C%d: status %d: %s", n, w.Code, w.Body.String())
			}
			if got := obs.Default().Snapshot().Gauges["server.cache.bytes"]; got > budget {
				t.Fatalf("after storing C%d: server.cache.bytes = %v, budget %d", n, got, budget)
			}
			if w := do(s, http.MethodPost, "/v1/solve", hot); w.Code != http.StatusOK || !decodeSolve(t, w).Cached {
				t.Fatalf("after storing C%d the hot key missed (status %d)", n, w.Code)
			}
		}
	})
	t.Logf("%d stores, %d evictions", d["server.cache.stores"], d["server.cache.evictions"])
	if d["server.cache.stores"] != 25 || d["server.cache.evictions"] == 0 {
		t.Errorf("stores %d, evictions %d; want 25 stores and some evictions", d["server.cache.stores"], d["server.cache.evictions"])
	}
	if _, size := s.cache.retained(); size > budget {
		t.Errorf("%d bytes retained, budget %d", size, budget)
	}
}

// TestJobResultSurvivesEviction: a solve converted to a 202 job still
// answers its poll with the same result after the cache has evicted its
// entry, because the finished job holds its own reference to the bytes.
func TestJobResultSurvivesEviction(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, func(c *Config) { c.SyncWait = 10 * time.Millisecond })
	s.cache = newSolveCache(1)
	inner := s.solveFn
	s.solveFn = func(ctx context.Context, g *graph.Graph, g6 string, k, attackers int) (*SolveResult, error) {
		if g.NumVertices() == 4 {
			<-release
		}
		return inner(ctx, g, g6, k, attackers)
	}
	w := do(s, http.MethodPost, "/v1/solve", `{"n":4,"edges":[[0,1],[1,2],[2,3],[0,3]],"k":1}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("status %d, want 202: %s", w.Code, w.Body.String())
	}
	close(release)
	poll := w.Header().Get("Location")
	first := awaitJob(t, s, poll)
	var js JobStatus
	if err := json.Unmarshal([]byte(first), &js); err != nil {
		t.Fatal(err)
	}
	if js.Status != JobDone || js.Result == nil || js.Result.GameValue != "1/2" {
		t.Fatalf("C4 k=1 job: %s", first)
	}

	w = do(s, http.MethodPost, "/v1/solve", `{"graph6":"A_","k":1}`)
	switch w.Code {
	case http.StatusOK:
	case http.StatusAccepted:
		awaitJob(t, s, w.Header().Get("Location"))
	default:
		t.Fatalf("evicting solve: status %d: %s", w.Code, w.Body.String())
	}
	if keys, _ := s.cache.retained(); len(keys) != 1 || keys[0].g6 != "A_" {
		t.Fatalf("cache holds %v, want only the A_ answer", keys)
	}
	if again := do(s, http.MethodGet, poll, ""); again.Body.String() != first {
		t.Errorf("poll after eviction:\n%s\nwant:\n%s", again.Body, first)
	}
}

// awaitJob polls a job until it is no longer pending and returns the
// final poll body.
func awaitJob(t *testing.T, s *Server, poll string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		w := do(s, http.MethodGet, poll, "")
		var js JobStatus
		if err := json.Unmarshal(w.Body.Bytes(), &js); err != nil {
			t.Fatal(err)
		}
		if js.Status != JobPending {
			return w.Body.String()
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished", poll)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// retained lists the keys the cache holds, most recently used first, and
// the sum of their sizes.
func (c *solveCache) retained() ([]cacheKey, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []cacheKey
	size := 0
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		keys = append(keys, e.key)
		size += e.size()
	}
	return keys, size
}

// TestGraph6CacheHitAllocs gates the allocation count of a 256-vertex
// graph6 cache hit through Handler(), request and recorder included. A
// hit is keyed on the request's own string and written from the stored
// bytes, so it neither decodes the graph, nor re-encodes its key, nor
// reflects over the result. A hit that did all three allocated ~880
// times on this graph, ~700 of them in the decode.
func TestGraph6CacheHitAllocs(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxVertices = 256 })
	body := graph6Body(t, graph.Grid(16, 16), 2)
	if w := do(s, http.MethodPost, "/v1/solve", body); w.Code != http.StatusOK {
		t.Fatalf("priming solve: status %d: %s", w.Code, w.Body.String())
	}
	h := s.Handler()
	allocs := testing.AllocsPerRun(50, func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	})
	t.Logf("256-vertex graph6 cache hit: %.0f allocs", allocs)
	const limit = 100
	if allocs > limit {
		t.Errorf("a 256-vertex graph6 cache hit allocates %.0f times, want <= %d", allocs, limit)
	}
}
