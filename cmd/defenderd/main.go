// Command defenderd serves the defender solve API of internal/server over
// HTTP: POST /v1/solve takes a graph (edge list or graph6) and a defender
// power k, and answers with Nash-equilibrium existence, the defender's
// mixed strategy, and the exact game value as "p/q" rationals; solves
// that outrun the synchronous wait window convert to 202 job handles
// polled at GET /v1/jobs/{id}. Requests flow through a bounded worker
// broker in front of a graph6-keyed response cache, so repeated graphs
// cost one solve and overload sheds as 429 instead of queueing without
// bound.
//
// Usage:
//
//	defenderd [-addr :8080] [-debug-addr HOST:PORT] [-workers N]
//	          [-queue-cap N] [-queue-high-water N] [-sync-wait 2s]
//	          [-solve-timeout 60s] [-max-vertices 256] [-trace-out FILE]
//	          [-trace-sample 1.0] [-log-out FILE]
//
// -debug-addr exposes /metrics (JSON or Prometheus exposition), /slo,
// expvar and net/http/pprof on a separate, private mux — the public
// -addr only ever serves the /v1 API, /healthz and /readyz. -trace-out
// streams span events as JSONL: every request is assigned (or keeps, via
// the X-Defender-Trace-Id header) a trace id, and the spans of a sampled
// request — server.solve, broker.queue_wait, and the solver stages under
// them — share it (see TRACING.md). -trace-sample tunes the head-based
// sampling rate; -log-out streams one structured JSONL line per request.
// SIGINT/SIGTERM drain in-flight solves before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/defender-game/defender/internal/obs"
	obslog "github.com/defender-game/defender/internal/obs/log"
	"github.com/defender-game/defender/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "defenderd:", err)
		os.Exit(1)
	}
}

// run boots the service and blocks until ctx is cancelled, then drains.
// ready, when non-nil, receives the bound public address once the
// listener is up — the boot smoke test and scripted harnesses use it
// instead of parsing log output.
func run(ctx context.Context, args []string, ready func(addr string)) error {
	fs := flag.NewFlagSet("defenderd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "public API listen address (\":0\" picks a free port)")
		debugAddr    = fs.String("debug-addr", "", "serve /metrics, expvar and pprof on this private address (e.g. localhost:6060)")
		workers      = fs.Int("workers", 0, "broker pool size: concurrent solves (0 = default 4)")
		queueCap     = fs.Int("queue-cap", 0, "broker queue bound before 429s (0 = default 64)")
		syncWait     = fs.Duration("sync-wait", 0, "how long POST /v1/solve waits before converting to a 202 job (0 = default 2s)")
		solveTimeout = fs.Duration("solve-timeout", 0, "per-solve deadline (0 = default 60s)")
		maxVertices  = fs.Int("max-vertices", 0, "largest accepted graph (0 = default 256)")
		traceOut     = fs.String("trace-out", "", "stream span events as JSONL to this file")
		traceSample  = fs.Float64("trace-sample", 1.0, "head-based trace sampling rate in [0, 1]")
		logOut       = fs.String("log-out", "", "stream structured request logs as JSONL to this file")
		queueHW      = fs.Int("queue-high-water", 0, "queue depth at which /readyz reports unready (0 = 3/4 of queue-cap)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *traceSample < 0 || *traceSample > 1 {
		return fmt.Errorf("trace-sample: rate %v outside [0, 1]", *traceSample)
	}

	reg := obs.Default()
	reg.SetEnabled(true)
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		reg.SetTraceWriter(f)
		defer func() {
			reg.SetTraceWriter(nil)
			f.Close()
		}()
	}
	var requestLog *obslog.Logger
	if *logOut != "" {
		f, err := os.Create(*logOut)
		if err != nil {
			return fmt.Errorf("log-out: %w", err)
		}
		defer f.Close()
		requestLog = obslog.New(f)
	}

	api := server.New(server.Config{
		Workers:         *workers,
		QueueCap:        *queueCap,
		SyncWait:        *syncWait,
		SolveTimeout:    *solveTimeout,
		MaxVertices:     *maxVertices,
		TraceSampleRate: traceSample,
		QueueHighWater:  *queueHW,
		RequestLog:      requestLog,
	})
	if *debugAddr != "" {
		bound, err := obs.StartDebugServerWith(*debugAddr, reg, map[string]http.Handler{
			"/slo": api.SLOHandler(),
		})
		if err != nil {
			return fmt.Errorf("debug-addr: %w", err)
		}
		fmt.Fprintf(os.Stderr, "defenderd: debug server on http://%s (/metrics, /slo, /debug/pprof/, /debug/vars)\n", bound)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	httpSrv := &http.Server{
		Handler:           api.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Fprintf(os.Stderr, "defenderd: serving /v1 on http://%s\n", ln.Addr())
	if ready != nil {
		ready(ln.Addr().String())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		// The listener died on its own; nothing left to drain.
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, finish in-flight requests, then
	// stop the broker behind them.
	fmt.Fprintln(os.Stderr, "defenderd: shutting down")
	drainCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	if err := api.Close(drainCtx); err != nil {
		return fmt.Errorf("broker drain: %w", err)
	}
	return nil
}
