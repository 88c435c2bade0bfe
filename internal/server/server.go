package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/obs"
	obslog "github.com/defender-game/defender/internal/obs/log"
	"github.com/defender-game/defender/internal/server/broker"
)

// Request-path metrics (catalogued in OBSERVABILITY.md). Accounting law,
// asserted by the handler tests: solve.requests == solve.ok +
// solve.accepted + solve.rejected + solve.errors once the server is
// quiescent.
var (
	solveRequests = obs.Default().Counter("server.solve.requests")
	solveOK       = obs.Default().Counter("server.solve.ok")
	solveAccepted = obs.Default().Counter("server.solve.accepted")
	solveRejected = obs.Default().Counter("server.solve.rejected")
	solveErrors   = obs.Default().Counter("server.solve.errors")
	jobsRequests  = obs.Default().Counter("server.jobs.requests")
)

// Readiness metrics: every /readyz evaluation bumps the check counter
// (and the unavailable counter when it sheds), and publishes the SLO
// monitor's burn rates as gauges so the scrape path sees what the
// probe saw.
var (
	readyzChecks      = obs.Default().Counter("server.readyz.checks")
	readyzUnavailable = obs.Default().Counter("server.readyz.unavailable")
	availabilityBurn  = obs.Default().Gauge("server.slo.availability_burn")
	latencyBurn       = obs.Default().Gauge("server.slo.latency_burn")
)

// Config tunes a Server. The zero value is usable: every field has a
// production default.
type Config struct {
	// Workers is the broker pool size (default 4): the maximum number of
	// concurrent solves.
	Workers int
	// QueueCap bounds the broker queue (default 64); a full queue sheds
	// load as 429 + Retry-After.
	QueueCap int
	// SyncWait is how long POST /v1/solve waits for the result before
	// converting to a 202 job handle (default 2s).
	SyncWait time.Duration
	// SolveTimeout is the per-solve deadline (default 60s); a request's
	// timeout_ms may lower it but never raise it.
	SolveTimeout time.Duration
	// JobTTL is how long finished jobs stay pollable (default 10m).
	JobTTL time.Duration
	// MaxVertices caps accepted graphs (default 256): the exact solvers
	// are built for instance sizes where exactness is tractable.
	MaxVertices int
	// MaxBodyBytes caps the request body (default 1 MiB).
	MaxBodyBytes int64
	// TraceSampleRate is the head-based trace sampling rate in [0, 1].
	// nil means the default 1.0 (every request's spans reach the JSONL
	// sink); a pointer to 0 disables sampling entirely. Sampling is
	// deterministic per trace ID, so a trace is always all-or-nothing.
	TraceSampleRate *float64
	// QueueHighWater is the broker queue depth at which /readyz starts
	// reporting unavailable (default 3/4 of QueueCap): drain traffic
	// before the queue fills into 429s.
	QueueHighWater int
	// MaxBurnRate is the SLO burn rate (availability or latency) at
	// which /readyz trips (default 10: the classic fast-burn page
	// threshold).
	MaxBurnRate float64
	// SLO tunes the rolling-window monitor behind /readyz; zero fields
	// take the obs.SLOConfig defaults.
	SLO obs.SLOConfig
	// RequestLog, when non-nil, receives one structured line per API
	// request (event "request": method, path, status, latency, trace
	// ID). A nil logger discards.
	RequestLog *obslog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.SyncWait == 0 {
		c.SyncWait = 2 * time.Second
	}
	if c.SolveTimeout == 0 {
		c.SolveTimeout = 60 * time.Second
	}
	if c.JobTTL == 0 {
		c.JobTTL = 10 * time.Minute
	}
	if c.MaxVertices == 0 {
		c.MaxVertices = 256
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.TraceSampleRate == nil {
		// nil (not 0) is the "defaulted" sentinel, so a caller can
		// disable sampling with an explicit pointer to 0.
		rate := 1.0
		c.TraceSampleRate = &rate
	}
	if c.QueueHighWater == 0 {
		c.QueueHighWater = c.QueueCap * 3 / 4
		if c.QueueHighWater < 1 {
			c.QueueHighWater = 1
		}
	}
	// lint:invariant(floateq): zero-value sentinel check, not a computed
	// float comparison.
	if c.MaxBurnRate == 0 {
		c.MaxBurnRate = 10
	}
	return c
}

// Server is the defender solve service: an http.Handler plus the broker,
// response cache and job store behind it. Construct with New, serve
// Handler(), and Close on the way out.
type Server struct {
	cfg    Config
	broker *broker.Broker
	cache  *solveCache
	jobs   *jobStore
	mux    *http.ServeMux
	slo    *obs.SLOMonitor

	// solveFn is the instance solver; tests swap it to script slow or
	// failing solves deterministically.
	solveFn func(ctx context.Context, g *graph.Graph, g6 string, k, attackers int) (*SolveResult, error)
}

// New builds a Server from cfg (zero fields defaulted).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		broker:  broker.New(cfg.Workers, cfg.QueueCap),
		cache:   newSolveCache(cacheBudget),
		jobs:    newJobStore(cfg.JobTTL),
		slo:     obs.NewSLOMonitor(cfg.SLO),
		solveFn: solve,
	}
	s.mux = http.NewServeMux()
	// Methods are checked inside the handlers so that 405s carry the
	// same structured error body as every other non-2xx response.
	s.mux.HandleFunc("/v1/solve", s.handleSolve)
	s.mux.HandleFunc("/v1/jobs/", s.handleJob)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, errBad(http.StatusNotFound, CodeNotFound, "no such route %s", r.URL.Path))
	})
	return s
}

// Handler returns the public API handler: the route mux wrapped in the
// per-request observability layer (ingress). Debug surfaces (/metrics,
// pprof, /slo) live on the separate mux of obs.StartDebugServer, bound
// privately by cmd/defenderd.
func (s *Server) Handler() http.Handler { return http.HandlerFunc(s.serveTraced) }

// statusWriter captures the response status for the request log and the
// SLO monitor. WriteHeader-less handlers imply 200, matching net/http.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// Flush forwards http.Flusher to the underlying writer, so a streaming
// handler behind Handler() keeps its flush behavior despite the wrap.
// The other optional interfaces (http.Hijacker, io.ReaderFrom) are not
// forwarded: every handler here writes plain buffered JSON.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// serveTraced is the ingress of every API request: it establishes the
// request's TraceContext (honoring a valid inbound X-Defender-Trace-Id,
// minting one otherwise), echoes the ID on the response, serves the
// route, then records the outcome into the SLO monitor and the request
// log. Trace creation precedes routing so every handler — and the
// broker and solver stack below handleSolve — sees the same trace in
// its context.
func (s *Server) serveTraced(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	traceID := r.Header.Get(TraceHeader)
	if !obs.ValidTraceID(traceID) {
		traceID = obs.NewTraceID()
	}
	tc := obs.TraceContext{TraceID: traceID, Sampled: obs.SampleTrace(traceID, *s.cfg.TraceSampleRate)}
	r = r.WithContext(obs.ContextWithTrace(r.Context(), tc))
	w.Header().Set(TraceHeader, traceID)

	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(sw, r)

	latency := time.Since(start)
	if strings.HasPrefix(r.URL.Path, "/v1/") {
		// Probes (/healthz, /readyz) stay out of the SLO window: they are
		// cheap, always succeed, and would dilute the burn rates the
		// /readyz decision is based on.
		ok := sw.status < http.StatusInternalServerError && sw.status != http.StatusTooManyRequests
		s.slo.Record(ok, latency)
	}
	s.cfg.RequestLog.Log("request", obslog.Fields{
		"method":     r.Method,
		"path":       r.URL.Path,
		"status":     sw.status,
		"latency_ms": float64(latency) / float64(time.Millisecond),
		"trace_id":   traceID,
		"sampled":    tc.Sampled,
	})
}

// SLOHandler returns the /slo debug endpoint: the monitor's current
// window evaluation as JSON. cmd/defenderd mounts it on the private
// debug mux next to /metrics.
func (s *Server) SLOHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.slo.Status())
	})
}

// handleReadyz is the readiness probe: unlike the pure-liveness
// /healthz it says whether this instance should receive NEW traffic.
// It sheds (503 + structured ReadyStatus body) when the broker queue
// is above the high-water mark or an SLO burn rate is past
// MaxBurnRate, so load balancers drain the instance before overload
// turns into 429 storms or budget exhaustion.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	readyzChecks.Inc()
	st := ReadyStatus{
		Status:         "ready",
		QueueDepth:     s.broker.QueueDepth(),
		QueueHighWater: s.cfg.QueueHighWater,
		SLO:            s.slo.Status(),
	}
	availabilityBurn.Set(st.SLO.AvailabilityBurnRate)
	latencyBurn.Set(st.SLO.LatencyBurnRate)
	switch {
	case st.QueueDepth >= st.QueueHighWater:
		st.Status, st.Reason = "unavailable", "queue_high_water"
	case st.SLO.AvailabilityBurnRate >= s.cfg.MaxBurnRate,
		st.SLO.LatencyBurnRate >= s.cfg.MaxBurnRate:
		st.Status, st.Reason = "unavailable", "burn_rate"
	}
	if st.Reason != "" {
		readyzUnavailable.Inc()
		writeJSON(w, http.StatusServiceUnavailable, st)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// Close stops admission and waits for in-flight solves, bounded by ctx.
func (s *Server) Close(ctx context.Context) error {
	return s.broker.Shutdown(ctx)
}

// writeError emits the structured non-2xx contract body.
func writeError(w http.ResponseWriter, e *apiError) {
	writeJSON(w, e.status, ErrorBody{Error: ErrorInfo{Code: e.code, Message: e.message}})
}

// solveError counts and writes a solve-path failure.
func solveError(w http.ResponseWriter, e *apiError) {
	solveErrors.Inc()
	writeError(w, e)
}

// handleSolve implements POST /v1/solve: decode → cache fast path (a
// graph6 request's, before its graph is parsed) → validation → broker
// admission → bounded synchronous wait → 200, or a 202 job
// handle whose completion a goroutine records from the broker's
// per-request channel.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, errBad(http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			"use POST %s", r.URL.Path))
		return
	}
	solveRequests.Inc()
	start := time.Now()
	// The span adopts the trace serveTraced installed; the derived
	// context makes it the parent of the broker's queue-wait span and of
	// every solver span below.
	sp, traceCtx := obs.Default().StartSpanCtx(r.Context(), "server.solve")
	defer sp.End()

	req, apiErr := decodeSolveRequest(w, r, s.cfg.MaxBodyBytes)
	if apiErr != nil {
		sp.Annotate("outcome", "bad_request")
		solveError(w, apiErr)
		return
	}
	drainBody(r)
	key := cacheKey{k: req.K, nu: req.Attackers}
	// A graph6 request is looked up on its own trimmed string before it is
	// parsed: only a canonical string that passed validation under this
	// server's cap and the same k can have been stored, so a hit needs no
	// decode. A miss goes on to the full validation below.
	byGraph6 := req.Graph6 != "" && req.N == 0 && len(req.Edges) == 0
	if byGraph6 {
		key.g6 = graph.TrimGraph6(req.Graph6)
		if s.answerCached(w, sp, key, start) {
			return
		}
	}
	g, g6, apiErr := buildGraph(req, s.cfg.MaxVertices)
	if apiErr != nil {
		sp.Annotate("outcome", "bad_request")
		solveError(w, apiErr)
		return
	}
	key.g6 = g6
	if !byGraph6 && s.answerCached(w, sp, key, start) {
		return
	}
	s.cache.Miss()
	annotateKey(sp, key)

	timeout := s.cfg.SolveTimeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	// The solve's context is detached from the HTTP request's: a 202
	// conversion outlives this handler, and a poller still wants the
	// result after the submitting client hangs up. The deadline bounds
	// abandoned work. DetachTrace keeps the request's trace across the
	// detachment, so the queue-wait and solver spans stay correlated.
	ctx, cancel := context.WithTimeout(obs.DetachTrace(traceCtx), timeout)
	ch, err := s.broker.Submit(ctx, func(ctx context.Context) (any, error) {
		return s.cache.Do(ctx, key, func() ([]byte, error) {
			res, err := s.solveFn(ctx, g, g6, req.K, req.Attackers)
			if err != nil {
				return nil, err
			}
			return json.Marshal(res)
		})
	})
	if err != nil {
		cancel()
		sp.Annotate("outcome", "rejected")
		solveRejected.Inc()
		w.Header().Set("Retry-After", "1")
		code := CodeQueueFull
		if errors.Is(err, broker.ErrClosed) {
			code = CodeInternal
		}
		writeError(w, errBad(http.StatusTooManyRequests, code, "%v", err))
		return
	}

	select {
	case res := <-ch:
		cancel()
		s.respondSolved(w, sp, res, start)
	case <-time.After(s.cfg.SyncWait):
		id := s.jobs.create()
		go func() {
			defer cancel()
			res := <-ch
			if res.Err != nil {
				s.jobs.complete(id, nil, solveErr(res.Err))
				return
			}
			s.jobs.complete(id, res.Value.([]byte), nil)
		}()
		sp.Annotate("outcome", "accepted")
		solveAccepted.Inc()
		poll := "/v1/jobs/" + id
		w.Header().Set("Location", poll)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusAccepted, JobStatus{ID: id, Status: JobPending, Poll: poll})
	}
}

// respondSolved writes the synchronous outcome of a broker result.
func (s *Server) respondSolved(w http.ResponseWriter, sp obs.Span, res broker.Result, start time.Time) {
	if res.Err != nil {
		sp.Annotate("outcome", "error")
		solveError(w, solveErr(res.Err))
		return
	}
	sp.Annotate("outcome", "ok")
	solveOK.Inc()
	writeSolved(w, res.Value.([]byte), false, msSince(start))
}

// answerCached writes the stored answer for key, if there is one, and
// reports whether it did.
func (s *Server) answerCached(w http.ResponseWriter, sp obs.Span, key cacheKey, start time.Time) bool {
	body, ok := s.cache.Lookup(key)
	if !ok {
		return false
	}
	annotateKey(sp, key)
	sp.Annotate("outcome", "cache_hit")
	solveOK.Inc()
	writeSolved(w, body, true, msSince(start))
	return true
}

// annotateKey records the instance a server.solve span answers.
func annotateKey(sp obs.Span, key cacheKey) {
	sp.Annotate("graph6", key.g6)
	sp.Annotate("k", strconv.Itoa(key.k))
}

// handleJob implements GET /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, errBad(http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			"use GET %s", r.URL.Path))
		return
	}
	jobsRequests.Inc()
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		writeError(w, errBad(http.StatusNotFound, CodeNotFound, "no such job"))
		return
	}
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, errBad(http.StatusNotFound, CodeNotFound, "unknown or expired job %q", id))
		return
	}
	status := jobBody{ID: j.id, Status: j.status, Poll: "/v1/jobs/" + j.id}
	switch j.status {
	case JobPending:
		w.Header().Set("Retry-After", "1")
	case JobDone:
		status.Result = j.result
	case JobFailed:
		status.Error = &ErrorInfo{Code: j.apiErr.code, Message: j.apiErr.message}
	}
	writeJSON(w, http.StatusOK, status)
}

// handleHealthz is the liveness probe cmd/defenderd's boot (and
// `make trace-smoke`) waits on.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}
