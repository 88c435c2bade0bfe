// Command benchkernel converts `go test -bench` output into the
// versioned bench-record schema of internal/benchrec, so the kernel
// micro-benchmarks (internal/rat, internal/lp, internal/core,
// internal/game) flow through the same cmd/benchdiff perf gate as the
// experiment tables.
//
// Usage:
//
//	go test -run='^$' -bench=. -count=3 ./internal/rat ./internal/lp |
//	    benchkernel -out BENCH_kernel.json -history bench/history
//
// Each benchmark becomes one table whose ID is "<package>/<Benchmark
// name>"; its wall time is the *minimum* ns/op across -count repetitions
// (the least-interfered-with run, matching internal/benchrec.Aggregate)
// and its throughput is the matching ops/sec, so benchdiff's wall and
// cells/sec gates both apply. Samples carries the repetition count, which
// lets benchdiff's -min-samples guard reject one-shot noise.
//
// Exit codes: 0 ok, 1 no benchmark lines found, 2 usage or write error.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"github.com/defender-game/defender/internal/benchrec"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func realMain(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchkernel", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out     = fs.String("out", "", "write the bench record to this file")
		history = fs.String("history", "", "also append the record to this history directory (see bench/history)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "benchkernel: reads benchmark output on stdin; no positional arguments")
		return 2
	}
	report, lines, err := parseBench(stdin)
	if err != nil {
		fmt.Fprintln(stderr, "benchkernel:", err)
		return 2
	}
	if len(report.Tables) == 0 {
		fmt.Fprintf(stderr, "benchkernel: no benchmark result lines in %d lines of input\n", lines)
		return 1
	}
	report.StampEnvironment("")

	if *out != "" {
		if err := report.Save(*out); err != nil {
			fmt.Fprintln(stderr, "benchkernel:", err)
			return 2
		}
	}
	if *history != "" {
		p, err := benchrec.AppendHistory(*history, report)
		if err != nil {
			fmt.Fprintln(stderr, "benchkernel:", err)
			return 2
		}
		fmt.Fprintf(stdout, "appended %s\n", p)
	}
	fmt.Fprintf(stdout, "%d kernel benchmark(s), %d sample(s) max\n", len(report.Tables), report.BenchRepeat)
	return 0
}

// benchLine matches one `go test -bench` result line:
//
//	BenchmarkAddSmall-8   12345678   95.2 ns/op   0 B/op   0 allocs/op
//
// The -<procs> suffix (GOMAXPROCS during the run) and the memory columns
// are optional.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s+([0-9.]+) ns/op`)

// pkgLine announces the package the following benchmarks belong to.
var pkgLine = regexp.MustCompile(`^pkg:\s+(\S+)`)

// sample accumulates one benchmark's repetitions.
type sample struct {
	minNS   float64
	samples int
	order   int // first-seen order, to keep the run's table order stable
}

// parseBench reads benchmark output and folds it into a bench record.
func parseBench(r io.Reader) (*benchrec.Report, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	byID := make(map[string]*sample)
	pkg := "kernel"
	lines := 0
	procs := 1
	for sc.Scan() {
		lines++
		line := sc.Text()
		if m := pkgLine.FindStringSubmatch(line); m != nil {
			pkg = path.Base(m[1])
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		// The -N name suffix is the GOMAXPROCS the benchmark binary ran
		// with; before it was parsed the record always claimed workers=1,
		// even for parallel benchmark runs.
		if m[2] != "" {
			if p, err := strconv.Atoi(m[2]); err == nil && p > procs {
				procs = p
			}
		}
		nsop, err := strconv.ParseFloat(m[3], 64)
		if err != nil || nsop <= 0 {
			continue
		}
		id := pkg + "/" + strings.TrimPrefix(m[1], "Benchmark")
		s, ok := byID[id]
		if !ok {
			s = &sample{minNS: nsop, order: len(byID)}
			byID[id] = s
		} else if nsop < s.minNS {
			s.minNS = nsop
		}
		s.samples++
	}
	if err := sc.Err(); err != nil {
		return nil, lines, fmt.Errorf("reading input: %w", err)
	}

	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return byID[ids[i]].order < byID[ids[j]].order })

	rep := &benchrec.Report{
		Suite:            "kernel-bench",
		WorkersRequested: procs,
		WorkersEffective: procs,
		GoMaxProcs:       runtime.GOMAXPROCS(0),
	}
	for _, id := range ids {
		s := byID[id]
		wallMS := s.minNS / 1e6
		rep.Tables = append(rep.Tables, benchrec.Table{
			ID:          id,
			Cells:       1,
			CellTiming:  true,
			Samples:     s.samples,
			WallMS:      wallMS,
			CellsPerSec: 1e9 / s.minNS,
		})
		rep.TotalWallMS += wallMS
		if s.samples > rep.BenchRepeat {
			rep.BenchRepeat = s.samples
		}
	}
	return rep, lines, nil
}
