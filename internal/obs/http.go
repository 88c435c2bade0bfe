package obs

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
)

// newDebugMux builds the handler behind the -debug-addr flag of
// cmd/experiments and cmd/defender:
//
//	/metrics            the registry snapshot as indented JSON; with
//	                    ?format=prometheus (or an Accept header asking
//	                    for text exposition) the Prometheus 0.0.4
//	                    rendering; with ?format=openmetrics (or an
//	                    OpenMetrics Accept header) the OpenMetrics
//	                    rendering, the only one carrying exemplars
//	/debug/vars         expvar (includes the registry under "defender.metrics")
//	/debug/pprof/...    the standard net/http/pprof profiles
//
// The pprof handlers are wired explicitly rather than via the package's
// import side effect, so nothing is registered on http.DefaultServeMux.
func newDebugMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		switch metricsFormat(req) {
		case formatOpenMetrics:
			w.Header().Set("Content-Type", OpenMetricsContentType)
			// lint:invariant(errlost): best-effort debug endpoint; a failed write means the client hung up
			_ = r.WriteOpenMetrics(w)
		case formatPrometheus:
			w.Header().Set("Content-Type", PrometheusContentType)
			// lint:invariant(errlost): best-effort debug endpoint; a failed write means the client hung up
			_ = r.WritePrometheus(w)
		default:
			w.Header().Set("Content-Type", "application/json")
			// lint:invariant(errlost): best-effort debug endpoint; a failed write means the client hung up
			_ = r.Snapshot().WriteJSON(w)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// The three /metrics representations metricsFormat chooses between.
const (
	formatJSON = iota
	formatPrometheus
	formatOpenMetrics
)

// metricsFormat decides the /metrics representation. An explicit
// ?format= query wins; otherwise a scraper-style Accept header selects
// the exposition format — OpenMetrics when the client advertises
// application/openmetrics-text (modern Prometheus does, and that is the
// only rendering carrying exemplars), text 0.0.4 for text/plain without
// asking for JSON. Plain curls and browsers (Accept */* or text/html)
// keep getting JSON, so existing tooling is unaffected.
func metricsFormat(req *http.Request) int {
	switch req.URL.Query().Get("format") {
	case "prometheus":
		return formatPrometheus
	case "openmetrics":
		return formatOpenMetrics
	case "json":
		return formatJSON
	}
	accept := req.Header.Get("Accept")
	switch {
	case strings.Contains(accept, "application/openmetrics-text"):
		return formatOpenMetrics
	case strings.Contains(accept, "text/plain") && !strings.Contains(accept, "application/json"):
		return formatPrometheus
	}
	return formatJSON
}

// publishOnce guards the process-global expvar name, which panics on
// duplicate registration.
var publishOnce sync.Once

// publishExpvar exposes r's live snapshot under the expvar name
// "defender.metrics", so /debug/vars carries the same numbers as /metrics.
// Only the first registry published wins; later calls are no-ops (expvar
// names are process-global and permanent).
func publishExpvar(r *Registry) {
	publishOnce.Do(func() {
		expvar.Publish("defender.metrics", expvar.Func(func() any { return r.Snapshot() }))
	})
}

// StartDebugServer binds addr (e.g. "localhost:6060"; a ":0" port picks a
// free one), publishes r to expvar, and serves newDebugMux(r) on a
// background goroutine for the life of the process. It returns the bound
// address, so callers can log the resolved port.
func StartDebugServer(addr string, r *Registry) (net.Addr, error) {
	return StartDebugServerWith(addr, r, nil)
}

// StartDebugServerWith is StartDebugServer with extra handlers mounted on
// the debug mux — how cmd/defenderd adds its /slo status endpoint next to
// /metrics and pprof. Extra patterns must not collide with the mux's own
// (/metrics, /debug/...).
func StartDebugServerWith(addr string, r *Registry, extra map[string]http.Handler) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	publishExpvar(r)
	mux := newDebugMux(r)
	for pattern, h := range extra {
		mux.Handle(pattern, h)
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr(), nil
}
