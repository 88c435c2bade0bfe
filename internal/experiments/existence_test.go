package experiments

import (
	"errors"
	"testing"

	"github.com/defender-game/defender/internal/cover"
	"github.com/defender-game/defender/internal/graph"
)

func TestFindNEPartitionGreedy(t *testing.T) {
	g := graph.Grid(5, 8)
	p, err := findNEPartitionGreedy(g, 16, 1)
	if err != nil {
		t.Fatalf("greedy on grid: %v", err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	// The heuristic never claims a partition the exact decision refutes,
	// and gives up on a graph that has none.
	for _, g := range []*graph.Graph{graph.Petersen(), graph.Cycle(9), graph.Complete(5)} {
		if _, err := cover.FindNEPartition(g); !errors.Is(err, cover.ErrNoPartition) {
			t.Fatalf("exact decision: %v, want ErrNoPartition", err)
		}
		if _, err := findNEPartitionGreedy(g, 32, 1); !errors.Is(err, cover.ErrPartitionNotFound) {
			t.Errorf("greedy: %v, want ErrPartitionNotFound", err)
		}
	}
}

func TestGreedyIndependentSet(t *testing.T) {
	g := graph.Cycle(6)
	is := greedyIndependentSet(g, []int{0, 1, 2, 3, 4, 5})
	if len(is) != 3 || !cover.IsIndependentSet(g, is) {
		t.Fatalf("IS = %v, want an independent triple on C6 in natural order", is)
	}
	is = greedyIndependentSet(g, []int{5, 1, 3, 0, 2, 4})
	if !cover.IsIndependentSet(g, is) {
		t.Fatal("custom order: not independent")
	}
	// Maximality: every vertex outside is adjacent to the set.
	member := make(map[int]bool)
	for _, v := range is {
		member[v] = true
	}
	for v := 0; v < g.NumVertices(); v++ {
		adjacent := member[v]
		for _, u := range g.Neighbors(v) {
			adjacent = adjacent || member[u]
		}
		if !adjacent {
			t.Fatalf("vertex %d could extend the greedy IS %v", v, is)
		}
	}
}
