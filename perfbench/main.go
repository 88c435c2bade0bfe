// Command perfbench is the repository's benchmark. It runs one named
// workload against the public entry points — the HTTP solve service of
// internal/server on a loopback listener, or the sparse CSR pipeline —
// checks every output, and prints one line per metric and, last, a JSON
// result object. See README.md in this directory.
//
//	bash perfbench/run.sh --workload serve-lp --seed 7 --seconds 20 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"github.com/defender-game/defender/internal/par"
)

// endToEnd and perLayer name every metric of a run's JSON result, in the
// order of BENCHMARK.json: untraced runs report endToEnd, traced runs
// perLayer. An untraced run also prints latency_p99_ms, failed_ratio and,
// for serve workloads, loadgen.lag_p99_ms, outside the JSON result (see
// README.md).
var endToEnd = []string{
	"setup_s", "latency_p50_ms", "slo_attainment",
	"max_rate_rps", "cpu_ms_per_op", "heap_peak_mb", "solve_s",
}

var perLayer = []string{
	"server.decode.ms", "server.key.ms", "server.encode.ms", "server.encode.kb", "server.encode.alloc_kb",
	"server.cache.hit_ratio", "server.cache.entries",
	"broker.queue_wait.p50_ms", "broker.queue_wait.p99_ms", "broker.run.p50_ms", "broker.rejected",
	"cover.edge_cover_number.ms", "core.solve_any.ms",
	"core.family.k_matching", "core.family.perfect_matching", "core.family.regular", "core.family.lp_minimax",
	"core.game_value.ms", "core.game_value.tuples", "core.game_value.alloc_kb",
	"lp.solves_per_op", "lp.pivots_per_op",
	"gc.cycles_per_op", "gc.pause_ms",
	"loadgen.lag_p99_ms", "loadgen.sent", "loadgen.ok", "loadgen.failed", "loadgen.accepted_202",
	"graph.build_csr.ms", "graph.bipartition.ms", "graph.csr.bytes_mb",
	"matching.hopcroft_karp.ms", "matching.hopcroft_karp.calls_per_solve", "matching.hk_phases", "matching.konig_cover.ms",
	"cover.edge_cover_csr.ms", "cover.partition_csr.ms", "core.atuple_csr.ms", "core.verify_csr.ms",
	"graph.build_csr.alloc_mb", "graph.bipartition.alloc_mb", "matching.hopcroft_karp.alloc_mb", "matching.konig_cover.alloc_mb",
	"cover.edge_cover_csr.alloc_mb", "cover.partition_csr.alloc_mb", "core.atuple_csr.alloc_mb", "core.verify_csr.alloc_mb",
	"par.speedup.build_csr", "par.speedup.bipartition", "par.speedup.hopcroft_karp", "par.speedup.edge_cover_csr",
	"par.speedup.partition_csr", "par.speedup.atuple_csr", "par.speedup.verify_csr", "par.speedup.total",
	"par.imbalance", "trace.overhead_pct",
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fset.String("workload", "", "serve-hot, serve-lp, serve-large or sparse-1m")
		seed     = fset.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = fset.Float64("seconds", 20, "how long the run measures")
		trace    = fset.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
		root     = fset.String("root", ".", "repository root, for the source digest")
		gitSHA   = fset.String("git-sha", "unknown", "commit being measured, when known")
	)
	if err := fset.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	traced := *trace == 1

	var (
		r   *report
		err error
	)
	switch *workload {
	case sparseName:
		r, err = runSparse(*seed, *seconds, traced)
	default:
		spec, ok := findServeSpec(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		r, err = runServe(spec, *seed, *seconds, traced)
	}
	if err != nil {
		return err
	}
	names := endToEnd
	if traced {
		names = perLayer
	}
	if err := r.complete(names); err != nil {
		return err
	}
	w := bufio.NewWriter(stdout)
	stamp(w, *workload, *seed, *seconds, traced, *root, *gitSHA)
	if err := r.write(w); err != nil {
		return err
	}
	return w.Flush()
}

func findServeSpec(name string) (serveSpec, bool) {
	for _, s := range serveSpecs {
		if s.name == name {
			return s, true
		}
	}
	return serveSpec{}, false
}

// stamp prints what a figure must be read against: the machine, the
// toolchain, the code and the workload's parameters.
func stamp(w io.Writer, workload string, seed int64, seconds float64, traced bool, root, gitSHA string) {
	params := map[string]any{"setup_reps_min": setupReps, "setup_budget_s": setupBudget.Seconds()}
	if spec, ok := findServeSpec(workload); ok {
		params["limit_ms"], params["rate_rps"], params["ladder"] = spec.limitMS, spec.rate(), spec.ladder()
		params["capacity_rps"], params["nominal_share"], params["generator_rate_rps"] = spec.capacity, nominalShare, generatorRate
		params["broker_workers"], params["client_connections"] = runtime.NumCPU(), runtime.NumCPU()
	} else {
		params["n"], params["attach"], params["k"], params["attackers"] = sparseN, sparseAttach, sparseK, sparseNu
	}
	s, _ := json.Marshal(map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "traced": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "par_threads": par.Threads(),
		"cpu_model": cpuModel(), "go_version": runtime.Version(), "goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
		"git_sha": gitSHA, "source_sha256": sourceDigest(root), "params": params,
	})
	fmt.Fprintf(w, "# stamp %s\n", s)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the module's Go sources and go.mod outside this
// directory: it names the code measured even where no git metadata exists.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "perfbench" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
