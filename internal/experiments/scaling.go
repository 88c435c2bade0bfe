package experiments

import (
	"fmt"
	"time"

	"github.com/defender-game/defender/internal/core"
	"github.com/defender-game/defender/internal/cover"
	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/matching"
)

// E4ATupleScaling regenerates Theorem 4.13: after Algorithm A, the tuple
// construction of Algorithm A_tuple runs in O(k·n). The table sweeps n and
// k on cycle workloads (|EC| = n/2 there) and reports ns per unit of k·|EC|,
// which should stay roughly flat as the product grows by orders of
// magnitude. One runner cell per cycle size; the timing columns are
// volatile (masked in canonical renderings) and the self-check structural.
func E4ATupleScaling(cfg Config) (Table, error) {
	t := Table{
		ID:    "E4",
		Title: "Algorithm A_tuple running time versus k·n",
		Claim: "Thm 4.13: A_tuple terminates in O(k·n) after Algorithm A",
		Headers: []string{
			"n", "|EC|", "k", "δ", "lift-time", "ns/(k·|EC|)", "check",
		},
		Volatile: []int{4, 5},
	}
	sizes := []int{64, 256, 1024, 4096}
	ks := []int{1, 4, 16, 64}
	if cfg.Quick {
		sizes = []int{64, 256}
		ks = []int{1, 8}
	}
	r := newRunner(cfg)
	cells := make([]Cell, len(sizes))
	for i, n := range sizes {
		n := n
		cells[i] = func() ([][]string, error) {
			g := graph.Cycle(n)
			edgeNE, err := core.SolveEdgeModel(g, 4)
			if err != nil {
				return nil, fmt.Errorf("experiments: E4 n=%d: %w", n, err)
			}
			var rows [][]string
			for _, k := range ks {
				if k > len(edgeNE.EdgeSupport) {
					continue
				}
				start := time.Now()
				lifted, err := core.LiftToTupleModel(edgeNE, k)
				elapsed := time.Since(start)
				if err != nil {
					return nil, fmt.Errorf("experiments: E4 n=%d k=%d: %w", n, k, err)
				}
				unit := float64(elapsed.Nanoseconds()) / float64(k*len(edgeNE.EdgeSupport))
				// Self-check is structural (timings are environment-dependent):
				// the construction emitted δ tuples of k edges each.
				wantDelta := len(edgeNE.EdgeSupport) / gcdInt(len(edgeNE.EdgeSupport), k)
				ok := len(lifted.Tuples) == wantDelta
				rows = append(rows, []string{
					fmt.Sprint(n),
					fmt.Sprint(len(edgeNE.EdgeSupport)),
					fmt.Sprint(k),
					fmt.Sprint(len(lifted.Tuples)),
					elapsed.Round(time.Microsecond).String(),
					fmt.Sprintf("%.1f", unit),
					verdict(ok),
				})
			}
			return rows, nil
		}
	}
	rows, err := r.Run(cells)
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes,
		"ns/(k·|EC|) staying near-constant across two orders of magnitude demonstrates the O(k·n) bound",
		"timings exclude Algorithm A (step 1), matching the theorem's accounting",
	)
	return r.finish(t), nil
}

// E8Substrates benchmarks the substrate algorithms and re-validates
// Gallai's identity at scale: Hopcroft–Karp on bipartite workloads, blossom
// on general graphs, and minimum edge covers sized exactly n − μ. One
// runner cell per size.
func E8Substrates(cfg Config) (Table, error) {
	t := Table{
		ID:    "E8",
		Title: "Substrate algorithms: matchings and covers at scale",
		Claim: "Cor 3.2 machinery: maximum matching and minimum edge cover in polynomial time",
		Headers: []string{
			"workload", "n", "m", "algorithm", "result", "time", "check",
		},
		Volatile: []int{5},
	}
	sizes := []int{200, 800}
	if cfg.Quick {
		sizes = []int{100}
	}
	r := newRunner(cfg)
	cells := make([]Cell, len(sizes))
	for i, n := range sizes {
		n := n
		cells[i] = func() ([][]string, error) {
			var rows [][]string
			// Bipartite: Hopcroft–Karp on the CSR.
			bg := graph.RandomBipartite(n/2, n/2, 8.0/float64(n), cfg.Seed)
			start := time.Now()
			mate32, _, err := matching.MaximumBipartiteCSR(graph.FromGraph(bg))
			hkTime := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("experiments: E8 HK n=%d: %w", n, err)
			}
			mate := make([]int, len(mate32))
			for v, u := range mate32 {
				mate[v] = int(u)
			}
			hkOK := matching.Verify(bg, mate) == nil
			rows = append(rows, []string{
				"random bipartite", fmt.Sprint(bg.NumVertices()), fmt.Sprint(bg.NumEdges()),
				"hopcroft-karp", fmt.Sprintf("mu=%d", matching.Size(mate)),
				hkTime.Round(time.Microsecond).String(), verdict(hkOK),
			})

			// General: blossom + edge cover (Gallai check).
			gg := graph.RandomConnected(n, 6.0/float64(n), cfg.Seed+2)
			start = time.Now()
			gmate := matching.Maximum(gg)
			blTime := time.Since(start)
			mu := matching.Size(gmate)
			start = time.Now()
			ec, err := cover.MinimumEdgeCover(gg)
			ecTime := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("experiments: E8 EC n=%d: %w", n, err)
			}
			gallai := len(ec) == gg.NumVertices()-mu && cover.IsEdgeCover(gg, ec)
			rows = append(rows, []string{
				"random connected", fmt.Sprint(gg.NumVertices()), fmt.Sprint(gg.NumEdges()),
				"blossom", fmt.Sprintf("mu=%d", mu),
				blTime.Round(time.Microsecond).String(), verdict(matching.Verify(gg, gmate) == nil),
			})
			rows = append(rows, []string{
				"random connected", fmt.Sprint(gg.NumVertices()), fmt.Sprint(gg.NumEdges()),
				"min-edge-cover", fmt.Sprintf("rho=%d=n-mu", len(ec)),
				ecTime.Round(time.Microsecond).String(), verdict(gallai),
			})
			return rows, nil
		}
	}
	rows, err := r.Run(cells)
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes,
		"Gallai's identity rho = n - mu is asserted on every general-graph row",
	)
	return r.finish(t), nil
}

func gcdInt(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
