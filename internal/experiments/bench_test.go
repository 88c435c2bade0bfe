package experiments

import (
	"testing"

	"github.com/defender-game/defender/internal/core"
	"github.com/defender-game/defender/internal/graph"
)

// The perf-trajectory benchmarks behind `make bench`: the LP value oracle,
// the pure-strategy tuple enumeration it feeds on, and one full Quick
// table on the cell runner at 1 and GOMAXPROCS workers.
// `make bench` runs these and then has cmd/experiments write the
// BENCH_experiments.json baseline.

func BenchmarkGameValue(b *testing.B) {
	g := graph.Cycle(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := core.GameValue(g, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTupleEnumeration(b *testing.B) {
	g := graph.Cycle(18)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := core.EnumerateTuples(g, 3); len(got) != 816 {
			b.Fatalf("enumerated %d tuples, want C(18,3)=816", len(got))
		}
	}
}

// benchQuickTable runs one full Quick-mode table per iteration.
func benchQuickTable(b *testing.B, id string, workers int) {
	b.Helper()
	var exp Experiment
	for _, e := range All() {
		if e.ID == id {
			exp = e
		}
	}
	if exp.Run == nil {
		b.Fatalf("no experiment %s", id)
	}
	cfg := Config{Quick: true, Seed: 1, Workers: workers}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := exp.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Failures()) > 0 {
			b.Fatalf("%s self-check failed", id)
		}
	}
}

func BenchmarkQuickTableE10Sequential(b *testing.B) { benchQuickTable(b, "E10", 1) }
func BenchmarkQuickTableE10Parallel(b *testing.B)   { benchQuickTable(b, "E10", 0) }
func BenchmarkQuickTableE12Sequential(b *testing.B) { benchQuickTable(b, "E12", 1) }
func BenchmarkQuickTableE12Parallel(b *testing.B)   { benchQuickTable(b, "E12", 0) }
