package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"github.com/defender-game/defender/internal/graph"
)

// discardResponse is a ResponseWriter that keeps nothing, so a benchmark
// measures the body it builds and not a recorder's copy of it.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// matchedGraph is a perfect matching on n (even) vertices, a triangle
// through its first two pairs, and 2n seeded random edges: a
// non-bipartite graph with a perfect-matching equilibrium.
func matchedGraph(n int, seed int64) *graph.Graph {
	g := graph.PerfectMatchingGraph(n)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(0, 2)
	rng := rand.New(rand.NewSource(seed))
	for g.NumEdges() < n/2+2*n {
		_ = g.AddEdge(rng.Intn(n), rng.Intn(n)) // a loop or repeat is refused
	}
	return g
}

// BenchmarkSolveMiss measures a response-cache miss past the broker:
// solve, json.Marshal of the result (the cache entry) and writeSolved.
// The instances are serve-large-shaped, at n = 128–256 and k = 3–8: a
// tree, a grid, an even cycle and a matched graph, each with C(m,k) far
// over the LP budget, so the structured families answer without an LP.
func BenchmarkSolveMiss(b *testing.B) {
	cases := []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"tree-200", graph.RandomTree(200, 1), 3},
		{"grid-8x32", graph.Grid(8, 32), 4},
		{"cycle-256", graph.Cycle(256), 8},
		{"matched-160", matchedGraph(160, 2), 5},
	}
	ctx := context.Background()
	for _, c := range cases {
		g6, err := graph.FormatGraph6(c.g)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/k=%d", c.name, c.k), func(b *testing.B) {
			w := &discardResponse{h: make(http.Header)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := solve(ctx, c.g, g6, c.k, 2)
				if err != nil {
					b.Fatal(err)
				}
				if res.MixedNE == nil || res.GameValueSource != "closed-form" {
					b.Fatalf("want a structured answer with a closed-form value, got %+v", res)
				}
				body, err := json.Marshal(res)
				if err != nil {
					b.Fatal(err)
				}
				writeSolved(w, body, false, 1.25)
			}
		})
	}
}
