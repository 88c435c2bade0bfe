package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

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
	want := 0
	s.cache.mu.Lock()
	for key, body := range s.cache.done {
		want += len(key.g6) + len(body)
	}
	entries := len(s.cache.done)
	s.cache.mu.Unlock()
	if entries != 3 {
		t.Errorf("%d entries, want 3", entries)
	}
	if got := obs.Default().Snapshot().Gauges["server.cache.bytes"]; got != float64(want) {
		t.Errorf("server.cache.bytes = %v, want %d", got, want)
	}
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
