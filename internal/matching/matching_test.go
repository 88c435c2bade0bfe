package matching

import (
	"testing"

	"github.com/defender-game/defender/internal/graph"
)

// bruteForceMaximumMatchingSize enumerates all edge subsets (2^m) and
// returns the maximum matching size — the oracle for the fast algorithms.
func bruteForceMaximumMatchingSize(g *graph.Graph) int {
	edges := g.Edges()
	m := len(edges)
	if m > 20 {
		panic("oracle limited to 20 edges")
	}
	best := 0
	for mask := 0; mask < 1<<uint(m); mask++ {
		used := make(map[int]bool)
		count := 0
		ok := true
		for i := 0; i < m && ok; i++ {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			e := edges[i]
			if used[e.U] || used[e.V] {
				ok = false
				break
			}
			used[e.U], used[e.V] = true, true
			count++
		}
		if ok && count > best {
			best = count
		}
	}
	return best
}

func TestMateArrayHelpers(t *testing.T) {
	mate := NewMateArray(4)
	for _, v := range mate {
		if v != Unmatched {
			t.Fatal("new mate array must be all unmatched")
		}
	}
	mate[0], mate[1] = 1, 0
	if Size(mate) != 1 {
		t.Errorf("Size = %d, want 1", Size(mate))
	}
	edges := Edges(mate)
	if len(edges) != 1 || edges[0] != graph.NewEdge(0, 1) {
		t.Errorf("Edges = %v", edges)
	}
}

func TestGreedyIsMaximal(t *testing.T) {
	g := graph.RandomGNP(30, 0.2, 11)
	mate := Greedy(g)
	if err := Verify(g, mate); err != nil {
		t.Fatalf("greedy produced invalid matching: %v", err)
	}
	// Maximality: no edge with both endpoints unmatched.
	for _, e := range g.Edges() {
		if mate[e.U] == Unmatched && mate[e.V] == Unmatched {
			t.Fatalf("edge %v could extend the greedy matching", e)
		}
	}
}

func TestVerifyRejectsCorruptMateArrays(t *testing.T) {
	g := graph.Path(4)
	tests := []struct {
		name string
		mate []int
	}{
		{"wrong length", make([]int, 3)},
		{"asymmetric", []int{1, 2, Unmatched, Unmatched}},
		{"out of range", []int{9, Unmatched, Unmatched, Unmatched}},
		{"non-edge", []int{2, Unmatched, 0, Unmatched}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.name == "wrong length" {
				for i := range tt.mate {
					tt.mate[i] = Unmatched
				}
			}
			if err := Verify(g, tt.mate); err == nil {
				t.Error("Verify should fail")
			}
		})
	}
}
