# Development targets. CI (.github/workflows/ci.yml) runs the same gate:
# build, vet, defenderlint, race tests, and a fuzz smoke of every native
# fuzz target (ten of them, see fuzz-smoke).

GO ?= go
FUZZTIME ?= 30s

# Smoke-run artifacts (lint SARIF, trace/metrics/SLO captures) land in one
# gitignored directory instead of littering the repo root. CI uploads them
# from here.
SMOKEDIR ?= _smoke

.PHONY: all build test fmtcheck lint vet race bench bench-kernel benchdiff fuzz-smoke linkcheck trace-smoke check

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

# benchdiff gates the two most recent bench/history records against each
# other (see OBSERVABILITY.md "Tracking performance over time").
benchdiff:
	$(GO) run ./cmd/benchdiff -min-samples 2 -min-wall-ms 1 -history bench/history

# fuzz-smoke gives each native fuzz target a short budget; crashes fail
# the target and land a reproducer under testdata/fuzz. The graph and
# server packages hold several targets each, so the -fuzz patterns are
# anchored.
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
	$(GO) test -run='^$$' -fuzz='^FuzzIndentMatchesStd$$' -fuzztime=$(FUZZTIME) ./internal/server

# trace-smoke proves the tracing pipeline end-to-end (TRACING.md): boot
# defenderd with full sampling, a trace sink and a request log, drive it
# with 5000 solves of one cached instance (C12, k=2) from a single
# `curl --parallel` run (32 in flight; %header{} needs curl >= 7.84),
# drain gracefully, then assert: every response 200 at >= 2000 req/s, the
# trace ID of the request the server took longest over (the request log's
# maximum latency_ms; curl's slowest also waited in its own queue) found
# in the capture and rendered by tracetool -trace, every trace connected
# with a server.solve root
# (tracetool -check), the broker's queue-wait span present, the tail
# traceable (-p99), and the OpenMetrics exposition carrying trace_id
# exemplars while the 0.0.4 exposition stays exemplar-free (its grammar
# forbids them). Leaves trace_smoke.jsonl, requests_smoke.jsonl,
# curl_smoke.txt (code, seconds, trace ID per request), metrics_smoke.prom
# (0.0.4), metrics_smoke.om (OpenMetrics) and slo_smoke.json behind under
# $(SMOKEDIR)/ for inspection; CI's trace-smoke job adds jq assertions
# on top.
TRACESMOKE_ADDR ?= 127.0.0.1:18212
TRACESMOKE_DEBUG_ADDR ?= 127.0.0.1:18213
trace-smoke:
	@mkdir -p bin $(SMOKEDIR)
	$(GO) build -o bin/defenderd ./cmd/defenderd
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
	printf '%s' '{"n":12,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,8],[8,9],[9,10],[10,11],[11,0]],"k":2,"attackers":1}' \
		> $(SMOKEDIR)/solve_body.json; \
	t0=$$(date +%s.%N); \
	curl --no-progress-meter -Z --parallel-max 32 -H 'Content-Type: application/json' -d @$(SMOKEDIR)/solve_body.json \
		-o /dev/null -w '%{http_code} %{time_total} %header{x-defender-trace-id}\n' \
		"http://$(TRACESMOKE_ADDR)/v1/solve?r=[1-5000]" > $(SMOKEDIR)/curl_smoke.txt; \
	t1=$$(date +%s.%N); \
	awk -v t0=$$t0 -v t1=$$t1 '$$1 == 200 { ok++ } END { \
		rps = NR / (t1 - t0); printf "trace-smoke: %d requests, %d answered 200, %.0f req/s\n", NR, ok, rps; \
		exit !(NR == 5000 && ok == NR && rps >= 2000) }' $(SMOKEDIR)/curl_smoke.txt \
		|| { echo "trace-smoke: want 5000 requests, all 200, at >= 2000 req/s"; exit 1; }; \
	curl -fsS "http://$(TRACESMOKE_DEBUG_ADDR)/metrics?format=prometheus" > $(SMOKEDIR)/metrics_smoke.prom; \
	curl -fsS "http://$(TRACESMOKE_DEBUG_ADDR)/metrics?format=openmetrics" > $(SMOKEDIR)/metrics_smoke.om; \
	curl -fsS http://$(TRACESMOKE_DEBUG_ADDR)/slo > $(SMOKEDIR)/slo_smoke.json; \
	kill -TERM $$pid; wait $$pid 2>/dev/null || true; \
	trap - EXIT INT TERM; \
	./bin/tracetool -check -require server.solve $(SMOKEDIR)/trace_smoke.jsonl; \
	tid=$$(jq -rs 'map(select(.path == "/v1/solve")) | max_by(.latency_ms) | .trace_id' $(SMOKEDIR)/requests_smoke.jsonl); \
	echo "$$tid" | grep -Eq '^[0-9a-f]{32}$$' && grep -q "\"$$tid\"" $(SMOKEDIR)/trace_smoke.jsonl \
		|| { echo "trace-smoke: slowest request's trace '$$tid' not in the capture"; exit 1; }; \
	./bin/tracetool -trace "$$tid" $(SMOKEDIR)/trace_smoke.jsonl; \
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
