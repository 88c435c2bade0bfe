# Development targets. CI (.github/workflows/ci.yml) runs the same gate:
# build, vet, defenderlint, race tests, and a fuzz smoke of both parsers.

GO ?= go
FUZZTIME ?= 30s

# Smoke-run artifacts (lint SARIF, trace/metrics/SLO captures) land in one
# gitignored directory instead of littering the repo root. CI uploads them
# from here.
SMOKEDIR ?= _smoke

.PHONY: all build test fmtcheck lint vet race bench bench-kernel bench-scaling benchdiff fuzz-smoke linkcheck loadtest trace-smoke check

# DOCS is the documentation set linkcheck keeps honest (relative links and
# heading anchors; see cmd/linkcheck).
DOCS = README.md DESIGN.md EXPERIMENTS.md OBSERVABILITY.md SCALING.md TRACING.md

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmtcheck fails when any tracked Go file (perfbench included) is not
# gofmt-clean, listing the offenders.
fmtcheck:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint = go vet + the project's own invariant analyzers (see
# internal/analyzers and DESIGN.md "Static analysis & invariants"). Test
# files are included, and the run leaves a SARIF report behind — locally for
# inspection, in CI as an uploaded artifact. Findings print to stderr via
# the per-analyzer summary; the full report lives in $(SMOKEDIR)/defenderlint.sarif.
lint: vet
	@mkdir -p $(SMOKEDIR)
	$(GO) run ./cmd/defenderlint -include-tests -format=sarif -o $(SMOKEDIR)/defenderlint.sarif ./...

race:
	$(GO) test -race ./...

# bench runs the experiment-engine micro/table benchmarks and then has the
# CLI emit the versioned BENCH_experiments.json perf record (schema v2:
# git SHA, timestamp, host env, per-table wall time, cells/sec,
# p50/p95/p99/max cell latency over BENCH_REPEAT robust samples) and
# append the same record to the bench/history trajectory.
BENCH_REPEAT ?= 3
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/experiments
	$(GO) run ./cmd/experiments -quick -bench-repeat $(BENCH_REPEAT) \
		-bench-out BENCH_experiments.json -bench-history bench/history

# bench-kernel runs the arithmetic-kernel and solver hot-loop benchmarks
# (internal/rat, internal/lp, internal/core, internal/game) and folds them
# into a schema-v2 record via cmd/benchkernel, appended to bench/history so
# benchdiff can gate kernel regressions exactly like experiment tables.
KERNEL_PKGS = ./internal/rat ./internal/lp ./internal/core ./internal/game
bench-kernel:
	$(GO) test -run='^$$' -bench=. -count=$(BENCH_REPEAT) $(KERNEL_PKGS) | \
		$(GO) run ./cmd/benchkernel -out BENCH_kernel.json -history bench/history

# bench-scaling drives the sparse-core pipeline across the 10^3..10^6
# Barabási–Albert ladder (generate, ρ(G), k-matching NE solve, Theorem 3.4
# verify per decade) and records the curve as a schema-v2 bench record in
# bench/history. SCALING.md explains how to read it; CI's scaling-smoke
# job runs the same ladder capped at 10^4 vertices.
SCALING_MAX_N ?= 1000000
bench-scaling:
	$(GO) run ./cmd/benchkernel -scaling -scaling-max-n $(SCALING_MAX_N) \
		-scaling-repeat $(BENCH_REPEAT) -out BENCH_scaling.json -history bench/history

# benchdiff gates the two most recent bench/history records against each
# other (see OBSERVABILITY.md "Tracking performance over time").
benchdiff:
	$(GO) run ./cmd/benchdiff -min-samples 2 -min-wall-ms 1 -history bench/history

# fuzz-smoke gives each native fuzz target a short budget; crashes fail
# the target and land a reproducer under testdata/fuzz. The graph package
# holds two targets (edge-list parser and graph6 round-trip), so the
# -fuzz patterns are anchored.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run='^$$' -fuzz='^FuzzParseGraph6$$' -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run='^$$' -fuzz='^FuzzBuildCSR$$' -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run='^$$' -fuzz='^FuzzHopcroftKarpCSRSubgraph$$' -fuzztime=$(FUZZTIME) ./internal/matching
	$(GO) test -run='^$$' -fuzz='^FuzzFindNEPartition$$' -fuzztime=$(FUZZTIME) ./internal/cover
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeProfile$$' -fuzztime=$(FUZZTIME) ./internal/game
	$(GO) test -run='^$$' -fuzz='^FuzzRatVsBigRat$$' -fuzztime=$(FUZZTIME) ./internal/rat
	$(GO) test -run='^$$' -fuzz='^FuzzSimplexVsDense$$' -fuzztime=$(FUZZTIME) ./internal/lp
	$(GO) test -run='^$$' -fuzz='^FuzzServeSolve$$' -fuzztime=$(FUZZTIME) ./internal/server

# loadtest boots defenderd on a private port, waits for /healthz, and
# drives LOADTEST_DURATION of cached solve traffic through cmd/loadgen:
# the steady-state broker + cache + encode path, not the solver. The
# latency record (p50/p95/p99) is written to BENCH_loadgen.json and
# appended to bench/history; the run fails below LOADTEST_MIN_RPS req/s.
# The daemon solves on the dense stack, which never reads the par thread
# budget, so it takes no solver-thread setting. Run it twice and
# `make benchdiff` gates the serve-vs-serve pair (CI's serve-smoke job
# does exactly that).
LOADTEST_ADDR ?= 127.0.0.1:18211
LOADTEST_DURATION ?= 10s
LOADTEST_MIN_RPS ?= 2000
LOADTEST_CONCURRENCY ?= 32
LOADTEST_HISTORY ?= bench/history
loadtest:
	@mkdir -p bin
	$(GO) build -o bin/defenderd ./cmd/defenderd
	$(GO) build -o bin/loadgen ./cmd/loadgen
	@set -e; \
	./bin/defenderd -addr $(LOADTEST_ADDR) & pid=$$!; \
	trap 'kill $$pid 2>/dev/null; wait $$pid 2>/dev/null' EXIT INT TERM; \
	ok=0; \
	for i in $$(seq 1 100); do \
		if curl -fsS -o /dev/null http://$(LOADTEST_ADDR)/healthz 2>/dev/null; then ok=1; break; fi; \
		sleep 0.1; \
	done; \
	[ $$ok -eq 1 ] || { echo "loadtest: defenderd never became healthy on $(LOADTEST_ADDR)"; exit 1; }; \
	./bin/loadgen -addr http://$(LOADTEST_ADDR) -duration $(LOADTEST_DURATION) \
		-concurrency $(LOADTEST_CONCURRENCY) -min-rps $(LOADTEST_MIN_RPS) \
		-bench-out BENCH_loadgen.json -bench-history $(LOADTEST_HISTORY)

# trace-smoke proves the tracing pipeline end-to-end (TRACING.md): boot
# defenderd with full sampling, a trace sink and a request log, drive it
# with loadgen, drain gracefully, then assert the capture — every trace
# connected with a server.solve root (tracetool -check), the broker's
# queue-wait span present, the tail traceable (-p99), and the
# OpenMetrics exposition carrying trace_id exemplars while the 0.0.4
# exposition stays exemplar-free (its grammar forbids them). Leaves
# trace_smoke.jsonl, requests_smoke.jsonl, metrics_smoke.prom (0.0.4),
# metrics_smoke.om (OpenMetrics) and BENCH_tracegen.json behind under
# $(SMOKEDIR)/ for inspection; CI's trace-smoke job adds jq assertions
# on top.
TRACESMOKE_ADDR ?= 127.0.0.1:18212
TRACESMOKE_DEBUG_ADDR ?= 127.0.0.1:18213
TRACESMOKE_DURATION ?= 5s
trace-smoke:
	@mkdir -p bin $(SMOKEDIR)
	$(GO) build -o bin/defenderd ./cmd/defenderd
	$(GO) build -o bin/loadgen ./cmd/loadgen
	$(GO) build -o bin/tracetool ./cmd/tracetool
	@set -e; \
	./bin/defenderd -addr $(TRACESMOKE_ADDR) -debug-addr $(TRACESMOKE_DEBUG_ADDR) \
		-trace-out $(SMOKEDIR)/trace_smoke.jsonl -trace-sample 1.0 \
		-log-out $(SMOKEDIR)/requests_smoke.jsonl & pid=$$!; \
	trap 'kill $$pid 2>/dev/null; wait $$pid 2>/dev/null' EXIT INT TERM; \
	ok=0; \
	for i in $$(seq 1 100); do \
		if curl -fsS -o /dev/null http://$(TRACESMOKE_ADDR)/healthz 2>/dev/null; then ok=1; break; fi; \
		sleep 0.1; \
	done; \
	[ $$ok -eq 1 ] || { echo "trace-smoke: defenderd never became healthy on $(TRACESMOKE_ADDR)"; exit 1; }; \
	curl -fsS http://$(TRACESMOKE_ADDR)/readyz > $(SMOKEDIR)/readyz_smoke.json; \
	./bin/loadgen -addr http://$(TRACESMOKE_ADDR) -duration $(TRACESMOKE_DURATION) \
		-concurrency $(LOADTEST_CONCURRENCY) -min-rps $(LOADTEST_MIN_RPS) \
		-bench-out $(SMOKEDIR)/BENCH_tracegen.json; \
	curl -fsS "http://$(TRACESMOKE_DEBUG_ADDR)/metrics?format=prometheus" > $(SMOKEDIR)/metrics_smoke.prom; \
	curl -fsS "http://$(TRACESMOKE_DEBUG_ADDR)/metrics?format=openmetrics" > $(SMOKEDIR)/metrics_smoke.om; \
	curl -fsS http://$(TRACESMOKE_DEBUG_ADDR)/slo > $(SMOKEDIR)/slo_smoke.json; \
	kill -TERM $$pid; wait $$pid 2>/dev/null || true; \
	trap - EXIT INT TERM; \
	./bin/tracetool -check -require server.solve $(SMOKEDIR)/trace_smoke.jsonl; \
	./bin/tracetool $(SMOKEDIR)/trace_smoke.jsonl | grep -q 'broker\.queue_wait' \
		|| { echo "trace-smoke: no broker.queue_wait span captured"; exit 1; }; \
	./bin/tracetool -p99 server.solve.seconds $(SMOKEDIR)/trace_smoke.jsonl; \
	grep -q '# {trace_id=' $(SMOKEDIR)/metrics_smoke.om \
		|| { echo "trace-smoke: no trace_id exemplars in the OpenMetrics exposition"; exit 1; }; \
	tail -1 $(SMOKEDIR)/metrics_smoke.om | grep -q '^# EOF$$' \
		|| { echo "trace-smoke: OpenMetrics exposition missing the # EOF terminator"; exit 1; }; \
	! grep -q '# {trace_id=' $(SMOKEDIR)/metrics_smoke.prom \
		|| { echo "trace-smoke: exemplars leaked into the text 0.0.4 exposition (would break its parsers)"; exit 1; }

linkcheck:
	$(GO) run ./cmd/linkcheck $(DOCS)

check: build fmtcheck lint race linkcheck
