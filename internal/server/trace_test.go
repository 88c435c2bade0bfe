package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/obs"
	obslog "github.com/defender-game/defender/internal/obs/log"
)

// captureTrace routes obs.Default()'s span JSONL into a buffer for the
// duration of the test. The server package suite runs sequentially, so
// the buffer sees only this test's spans.
func captureTrace(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	obs.Default().SetTraceWriter(&buf)
	t.Cleanup(func() { obs.Default().SetTraceWriter(nil) })
	return &buf
}

// spansOf decodes the capture buffer and keeps the spans of one trace.
func spansOf(t *testing.T, buf *bytes.Buffer, traceID string) []obs.SpanEvent {
	t.Helper()
	var out []obs.SpanEvent
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var ev obs.SpanEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad span line %q: %v", line, err)
		}
		if ev.TraceID == traceID {
			out = append(out, ev)
		}
	}
	return out
}

func TestTraceHeaderOnEveryResponse(t *testing.T) {
	s := newTestServer(t)
	for _, tc := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/solve", `{"n":2,"edges":[[0,1]],"k":1}`},
		{http.MethodPost, "/v1/solve", `{"k":1}`}, // 400
		{http.MethodGet, "/v1/jobs/nope", ""},     // 404
		{http.MethodGet, "/healthz", ""},
		{http.MethodGet, "/readyz", ""},
		{http.MethodGet, "/no/such/route", ""},
	} {
		w := do(s, tc.method, tc.path, tc.body)
		if id := w.Header().Get(TraceHeader); !obs.ValidTraceID(id) {
			t.Errorf("%s %s: %s = %q, want a valid trace ID", tc.method, tc.path, TraceHeader, id)
		}
	}
}

func TestTraceHeaderInboundHonored(t *testing.T) {
	s := newTestServer(t)
	inbound := strings.Repeat("ab", 16)
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set(TraceHeader, inbound)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if got := w.Header().Get(TraceHeader); got != inbound {
		t.Errorf("valid inbound trace ID not honored: got %q, want %q", got, inbound)
	}

	// An invalid inbound ID (wrong length, bad chars) is replaced, never
	// echoed back.
	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set(TraceHeader, "not-a-trace-id")
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if got := w.Header().Get(TraceHeader); got == "not-a-trace-id" || !obs.ValidTraceID(got) {
		t.Errorf("invalid inbound ID handled wrong: %q", got)
	}
}

// TestTraceConnectedThroughBroker: a synchronous solve produces a
// connected trace — server.solve as root, broker.queue_wait (and the
// solver spans) as descendants, all under the inbound trace ID.
func TestTraceConnectedThroughBroker(t *testing.T) {
	buf := captureTrace(t)
	s := newTestServer(t)
	inbound := strings.Repeat("cd", 16)
	req := httptest.NewRequest(http.MethodPost, "/v1/solve",
		bytes.NewReader([]byte(`{"n":4,"edges":[[0,1],[1,2],[2,3],[0,3]],"k":1}`)))
	req.Header.Set(TraceHeader, inbound)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}

	spans := spansOf(t, buf, inbound)
	byName := map[string]obs.SpanEvent{}
	for _, ev := range spans {
		byName[ev.Name] = ev
	}
	root, ok := byName["server.solve"]
	if !ok {
		t.Fatalf("no server.solve span in trace: %+v", spans)
	}
	if root.ParentID != "" {
		t.Errorf("server.solve parent = %q, want root", root.ParentID)
	}
	wait, ok := byName["broker.queue_wait"]
	if !ok {
		t.Fatalf("no broker.queue_wait span in trace: %+v", spans)
	}
	if wait.ParentID != root.SpanID {
		t.Errorf("queue_wait parent = %q, want server.solve %q", wait.ParentID, root.SpanID)
	}
	// Connectivity: every non-root span's parent must be a span of the
	// same trace.
	ids := map[string]bool{}
	for _, ev := range spans {
		ids[ev.SpanID] = true
	}
	for _, ev := range spans {
		if ev.ParentID != "" && !ids[ev.ParentID] {
			t.Errorf("span %s has orphan parent %q", ev.Name, ev.ParentID)
		}
	}
}

// TestMatchingSpansJoinTheRequestTrace: the one maximum matching of a
// solve runs under the request's context, so with every trace sampled
// each matching.maximum event carries the request's trace ID and hangs
// off a span of that request. No other matching span is written: the
// bipartite partition reuses the blossom matching.
func TestMatchingSpansJoinTheRequestTrace(t *testing.T) {
	buf := captureTrace(t)
	s := newTestServer(t)
	traces := map[string]string{}
	for i, tc := range oneMatchingCases[:2] { // Grid(3,4) and Petersen
		id := strings.Repeat(fmt.Sprintf("%02x", 0x41+i), 16)
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(graph6Body(t, tc.g, tc.k)))
		req.Header.Set(TraceHeader, id)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, w.Code, w.Body.String())
		}
		traces[id] = tc.name
	}

	matchings := 0
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev obs.SpanEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad span line %q: %v", line, err)
		}
		switch {
		case ev.Name == "matching.maximum":
			matchings++
			if _, ok := traces[ev.TraceID]; !ok {
				t.Errorf("matching.maximum outside the requests' traces: %+v", ev)
				continue
			}
			parent := false
			for _, other := range spansOf(t, buf, ev.TraceID) {
				parent = parent || other.SpanID == ev.ParentID
			}
			if !parent {
				t.Errorf("matching.maximum in %s has parent %q outside its request's spans", traces[ev.TraceID], ev.ParentID)
			}
		case strings.HasPrefix(ev.Name, "matching."):
			t.Errorf("second matching engine ran: %+v", ev)
		}
	}
	if matchings != len(traces) {
		t.Errorf("%d matching.maximum events, want one per request (%d)", matchings, len(traces))
	}
}

// TestCancelledRequestSpanStillCloses (the deadline-cancellation leg of
// the orphan-span suite): a request whose deadline expires while still
// queued gets its 504, and its queue-wait span still closes — carrying
// the request's trace ID — when the worker finally dequeues it.
func TestCancelledRequestSpanStillCloses(t *testing.T) {
	buf := captureTrace(t)
	release := make(chan struct{})
	s := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueCap = 4
	})
	inner := s.solveFn
	s.solveFn = func(ctx context.Context, g *graph.Graph, g6 string, k, attackers int) (*SolveResult, error) {
		<-release
		return inner(ctx, g, g6, k, attackers)
	}

	// Wedge the single worker.
	wedged := make(chan struct{})
	go func() {
		do(s, http.MethodPost, "/v1/solve", `{"n":2,"edges":[[0,1]],"k":1}`)
		close(wedged)
	}()
	waitFor(t, func() bool { return s.broker.QueueDepth() == 0 && obsInFlight(s) })

	// The victim: queued behind the wedge with a deadline it cannot make.
	victim := strings.Repeat("ef", 16)
	req := httptest.NewRequest(http.MethodPost, "/v1/solve",
		bytes.NewReader([]byte(`{"n":3,"edges":[[0,1],[1,2],[0,2]],"k":1,"timeout_ms":20}`)))
	req.Header.Set(TraceHeader, victim)
	w := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(w, req)
		close(done)
	}()

	time.Sleep(50 * time.Millisecond) // let the victim's deadline lapse while queued
	close(release)
	<-done
	<-wedged

	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("victim status %d, want 504: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get(TraceHeader); got != victim {
		t.Errorf("victim response trace = %q, want %q", got, victim)
	}
	spans := spansOf(t, buf, victim)
	var sawWait, sawRoot bool
	for _, ev := range spans {
		switch ev.Name {
		case "broker.queue_wait":
			sawWait = true
		case "server.solve":
			sawRoot = true
		}
	}
	if !sawWait || !sawRoot {
		t.Errorf("cancelled request's spans incomplete (wait=%v root=%v): %+v", sawWait, sawRoot, spans)
	}
}

// obsInFlight reports whether the wedge request has reached the solver
// (the single worker is busy).
func obsInFlight(s *Server) bool {
	return obs.Default().Counter("broker.submitted").Value() > 0
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			t.Fatal("condition never held")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// TestShutdownMidFlightSpansClose (the shutdown leg): requests still
// queued when Close begins are drained by the workers, and every
// accepted request's queue-wait span closes — none leak un-Ended.
func TestShutdownMidFlightSpansClose(t *testing.T) {
	buf := captureTrace(t)
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueCap: 8, SyncWait: 5 * time.Millisecond, MaxVertices: 64})
	s.solveFn = func(ctx context.Context, g *graph.Graph, g6 string, k, attackers int) (*SolveResult, error) {
		<-release
		return &SolveResult{Graph6: g6, N: g.NumVertices(), M: g.NumEdges(), K: k, Attackers: attackers}, nil
	}

	// One wedge + two queued requests, each with its own trace ID; all
	// convert to 202 jobs after SyncWait.
	traces := []string{strings.Repeat("11", 16), strings.Repeat("22", 16), strings.Repeat("33", 16)}
	for i, id := range traces {
		body := fmt.Sprintf(`{"n":%d,"edges":[%s],"k":1}`, i+2, pathEdges(i+2))
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader([]byte(body)))
		req.Header.Set(TraceHeader, id)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusAccepted {
			t.Fatalf("request %d: status %d, want 202: %s", i, w.Code, w.Body.String())
		}
	}

	// Shut down while two requests are still queued; release the wedge so
	// the drain can finish.
	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		closed <- s.Close(ctx)
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}

	for _, id := range traces {
		sawWait := false
		for _, ev := range spansOf(t, buf, id) {
			if ev.Name == "broker.queue_wait" {
				sawWait = true
			}
		}
		if !sawWait {
			t.Errorf("trace %s leaked its queue-wait span across shutdown", id)
		}
	}
}

func TestReadyz(t *testing.T) {
	s := newTestServer(t)
	w := do(s, http.MethodGet, "/readyz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("idle readyz = %d: %s", w.Code, w.Body.String())
	}
	var st ReadyStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "ready" || st.Reason != "" || st.QueueHighWater != s.cfg.QueueHighWater {
		t.Errorf("idle body: %+v", st)
	}
	if st.SLO.Availability != 1 {
		t.Errorf("idle SLO availability = %v, want 1", st.SLO.Availability)
	}
}

func TestReadyzQueueHighWater(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueCap = 4
		c.QueueHighWater = 1
		c.SyncWait = 5 * time.Millisecond
	})
	inner := s.solveFn
	s.solveFn = func(ctx context.Context, g *graph.Graph, g6 string, k, attackers int) (*SolveResult, error) {
		<-release
		return inner(ctx, g, g6, k, attackers)
	}
	defer close(release)

	// Wedge the worker, then queue one more distinct graph: depth 1 >=
	// high water 1.
	do(s, http.MethodPost, "/v1/solve", `{"n":2,"edges":[[0,1]],"k":1}`)
	do(s, http.MethodPost, "/v1/solve", `{"n":3,"edges":[[0,1],[1,2],[0,2]],"k":1}`)
	waitFor(t, func() bool { return s.broker.QueueDepth() >= 1 })

	d := counterDelta([]string{"server.readyz.checks", "server.readyz.unavailable"}, func() {
		w := do(s, http.MethodGet, "/readyz", "")
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("readyz over high water = %d, want 503: %s", w.Code, w.Body.String())
		}
		var st ReadyStatus
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Status != "unavailable" || st.Reason != "queue_high_water" {
			t.Errorf("body: %+v", st)
		}
	})
	if d["server.readyz.checks"] != 1 || d["server.readyz.unavailable"] != 1 {
		t.Errorf("readyz counters: %v", d)
	}
}

func TestReadyzBurnRateTrip(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxBurnRate = 5 })
	// Saturate the window with server-side failures: availability burn
	// far above 5 with the default 0.999 objective.
	for i := 0; i < 50; i++ {
		s.slo.Record(false, time.Millisecond)
	}
	w := do(s, http.MethodGet, "/readyz", "")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("burning readyz = %d, want 503: %s", w.Code, w.Body.String())
	}
	var st ReadyStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Reason != "burn_rate" {
		t.Errorf("reason = %q, want burn_rate (%+v)", st.Reason, st)
	}
	if st.SLO.AvailabilityBurnRate < 5 {
		t.Errorf("availability burn = %v, want >= 5", st.SLO.AvailabilityBurnRate)
	}
}

// TestSLORecordsOnlyAPIRequests: /v1 outcomes land in the SLO window;
// probe endpoints do not.
func TestSLORecordsOnlyAPIRequests(t *testing.T) {
	s := newTestServer(t)
	do(s, http.MethodGet, "/healthz", "")
	do(s, http.MethodGet, "/readyz", "")
	if st := s.slo.Status(); st.Requests != 0 {
		t.Fatalf("probes recorded into the SLO window: %+v", st)
	}
	do(s, http.MethodPost, "/v1/solve", `{"n":2,"edges":[[0,1]],"k":1}`)
	do(s, http.MethodGet, "/v1/jobs/nope", "") // 404: client error, SLO-ok
	st := s.slo.Status()
	if st.Requests != 2 || st.Errors != 0 {
		t.Fatalf("API outcomes: %+v, want 2 requests, 0 errors", st)
	}
}

func TestSLOHandler(t *testing.T) {
	s := newTestServer(t)
	s.slo.Record(true, time.Millisecond)
	w := httptest.NewRecorder()
	s.SLOHandler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/slo", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("slo handler = %d", w.Code)
	}
	var st obs.SLOStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("slo body: %v\n%s", err, w.Body.String())
	}
	if st.Requests != 1 {
		t.Errorf("slo requests = %d, want 1", st.Requests)
	}
}

// TestRequestLog: every API request produces one structured line whose
// trace_id matches the response header.
func TestRequestLog(t *testing.T) {
	var logBuf bytes.Buffer
	s := newTestServer(t, func(c *Config) { c.RequestLog = obslog.New(&logBuf) })
	w := do(s, http.MethodPost, "/v1/solve", `{"n":2,"edges":[[0,1]],"k":1}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	traceID := w.Header().Get(TraceHeader)

	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d log lines, want 1: %q", len(lines), logBuf.String())
	}
	var entry map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("log line not JSON: %v", err)
	}
	if entry["event"] != "request" || entry["method"] != "POST" ||
		entry["path"] != "/v1/solve" || entry["status"] != float64(200) {
		t.Errorf("log envelope wrong: %v", entry)
	}
	if entry["trace_id"] != traceID {
		t.Errorf("log trace_id = %v, want %v (the response header)", entry["trace_id"], traceID)
	}
	if _, ok := entry["latency_ms"].(float64); !ok {
		t.Errorf("latency_ms missing or non-numeric: %v", entry["latency_ms"])
	}
}
