package defender_test

// The benchmark harness: one testing.B benchmark per experiment table of
// EXPERIMENTS.md (E1–E15), plus micro-benchmarks of the substrate
// algorithms. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benches re-run the quick-mode experiment (including its
// self-checks) each iteration, so their throughput doubles as a regression
// gate; the micro benches isolate the algorithmic kernels the paper's
// complexity claims refer to (Hopcroft–Karp, blossom, minimum edge cover,
// Algorithm A, Algorithm A_tuple's lift, and the exact verifier).

import (
	"testing"

	defender "github.com/defender-game/defender"
	"github.com/defender-game/defender/internal/core"
	"github.com/defender-game/defender/internal/cover"
	"github.com/defender-game/defender/internal/dynamics"
	"github.com/defender-game/defender/internal/experiments"
	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/matching"
	"github.com/defender-game/defender/internal/sim"
)

// benchExperiment runs one experiment table in quick mode per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var runner experiments.Experiment
	for _, r := range experiments.All() {
		if r.ID == id {
			runner = r
		}
	}
	if runner.Run == nil {
		b.Fatalf("no experiment %s", id)
	}
	cfg := experiments.Config{Quick: true, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := runner.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Failures()) > 0 {
			b.Fatalf("%s self-check failed", id)
		}
	}
}

func BenchmarkE1PureExistence(b *testing.B)    { benchExperiment(b, "E1") }
func BenchmarkE2GainVsK(b *testing.B)          { benchExperiment(b, "E2") }
func BenchmarkE3Reduction(b *testing.B)        { benchExperiment(b, "E3") }
func BenchmarkE4ATupleScaling(b *testing.B)    { benchExperiment(b, "E4") }
func BenchmarkE5MonteCarlo(b *testing.B)       { benchExperiment(b, "E5") }
func BenchmarkE6Characterization(b *testing.B) { benchExperiment(b, "E6") }
func BenchmarkE7HitProfile(b *testing.B)       { benchExperiment(b, "E7") }
func BenchmarkE8Substrates(b *testing.B)       { benchExperiment(b, "E8") }
func BenchmarkE9Extensions(b *testing.B)       { benchExperiment(b, "E9") }
func BenchmarkE10ValueOracle(b *testing.B)     { benchExperiment(b, "E10") }
func BenchmarkE11Learning(b *testing.B)        { benchExperiment(b, "E11") }
func BenchmarkE12Economics(b *testing.B)       { benchExperiment(b, "E12") }
func BenchmarkE13Robust(b *testing.B)          { benchExperiment(b, "E13") }
func BenchmarkE14Weighted(b *testing.B)        { benchExperiment(b, "E14") }
func BenchmarkE15PathModel(b *testing.B)       { benchExperiment(b, "E15") }
func BenchmarkE16CompleteSolver(b *testing.B)  { benchExperiment(b, "E16") }

// --- substrate micro-benchmarks ---

func BenchmarkBlossom(b *testing.B) {
	for _, n := range []int{100, 400, 1000} {
		g := graph.RandomConnected(n, 6.0/float64(n), 1)
		b.Run(itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				matching.Maximum(g)
			}
		})
	}
}

func BenchmarkMinimumEdgeCover(b *testing.B) {
	for _, n := range []int{100, 1000} {
		g := graph.RandomConnected(n, 6.0/float64(n), 1)
		b.Run(itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cover.MinimumEdgeCover(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAlgorithmA(b *testing.B) {
	for _, n := range []int{64, 512, 2048} {
		g := graph.Cycle(n)
		p, err := cover.FindNEPartition(g)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.AlgorithmA(g, 4, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLiftToTupleModel(b *testing.B) {
	// Theorem 4.13's O(k·n) step in isolation.
	for _, n := range []int{256, 1024} {
		g := graph.Cycle(n)
		ne, err := core.SolveEdgeModel(g, 4)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range []int{4, 32} {
			b.Run(itoa(n)+"/k="+itoa(k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.LiftToTupleModel(ne, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkVerifyNE(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		g := graph.Grid(n/4, 4)
		ne, err := core.SolveTupleModel(g, 6, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := core.VerifyNE(ne.Game, ne.Profile); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSimulate(b *testing.B) {
	g := graph.CompleteBipartite(4, 8)
	ne, err := core.SolveTupleModel(g, 8, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(ne.Game, ne.Profile, 1000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLPGameValue(b *testing.B) {
	// The exact-simplex oracle: C8 at k=2 has C(8,2)=28 tuple columns.
	g := graph.Cycle(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := core.GameValue(g, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFictitiousPlay(b *testing.B) {
	g := graph.Petersen()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dynamics.FictitiousPlay(g, 2000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiplicativeWeights(b *testing.B) {
	g := graph.Petersen()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dynamics.MultiplicativeWeights(g, 2000, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveEndToEnd(b *testing.B) {
	// The public API path a downstream user hits.
	g := defender.GridGraph(6, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := defender.Solve(g, 10, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// itoa avoids importing strconv into the benchmark namespace repeatedly.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
