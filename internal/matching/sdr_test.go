package matching

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/defender-game/defender/internal/graph"
)

// checkSDR validates that rep is a genuine system of distinct
// representatives for s with the given restriction.
func checkSDR(t *testing.T, g *graph.Graph, s []int, allowed func(int) bool, rep map[int]int) {
	t.Helper()
	if len(rep) != len(graph.NormalizeSet(s)) {
		t.Fatalf("rep covers %d of %d set members", len(rep), len(s))
	}
	seen := make(map[int]bool)
	for _, v := range s {
		r, ok := rep[v]
		if !ok {
			t.Fatalf("no representative for %d", v)
		}
		if !g.HasEdge(v, r) {
			t.Fatalf("representative %d of %d is not a neighbor", r, v)
		}
		if allowed != nil && !allowed(r) {
			t.Fatalf("representative %d of %d violates restriction", r, v)
		}
		if seen[r] {
			t.Fatalf("representative %d reused", r)
		}
		seen[r] = true
	}
}

// checkViolator validates the Hall-violator certificate: the witnesses'
// permitted neighborhood is strictly smaller than the witness set.
func checkViolator(t *testing.T, g *graph.Graph, violator []int, allowed func(int) bool) {
	t.Helper()
	if len(violator) == 0 {
		t.Fatal("empty violator")
	}
	nbrs := make(map[int]bool)
	for _, v := range violator {
		for _, u := range g.Neighbors(v) {
			if allowed == nil || allowed(u) {
				nbrs[u] = true
			}
		}
	}
	if len(nbrs) >= len(violator) {
		t.Fatalf("violator %v has %d permitted neighbors — not a violation", violator, len(nbrs))
	}
}

func TestRepresentativesOnStar(t *testing.T) {
	g := graph.Star(5)
	// Leaves need distinct representatives but share the single hub.
	rep, violator := Representatives(g, []int{1, 2}, nil)
	if rep != nil {
		t.Fatal("two leaves cannot have distinct representatives")
	}
	checkViolator(t, g, violator, nil)

	// A single leaf is fine.
	rep, violator = Representatives(g, []int{3}, nil)
	if violator != nil {
		t.Fatalf("unexpected violator %v", violator)
	}
	checkSDR(t, g, []int{3}, nil, rep)
}

func TestRepresentativesWithRestriction(t *testing.T) {
	g := graph.Cycle(6)
	is := map[int]bool{1: true, 3: true, 5: true}
	allowed := func(v int) bool { return is[v] }
	vc := []int{0, 2, 4}
	rep, violator := Representatives(g, vc, allowed)
	if violator != nil {
		t.Fatalf("C6 with alternating partition must have an SDR, violator %v", violator)
	}
	checkSDR(t, g, vc, allowed, rep)
}

func TestRepresentativesTriangleLiteralVsRestricted(t *testing.T) {
	g := graph.Complete(3)
	// Literal definition: {b, c} can use each other and a — SDR exists.
	rep, violator := Representatives(g, []int{1, 2}, nil)
	if violator != nil {
		t.Fatalf("literal SDR should exist on a triangle, violator %v", violator)
	}
	checkSDR(t, g, []int{1, 2}, nil, rep)
	// Restricted to IS = {0}: two cover vertices cannot share vertex 0.
	allowed := func(v int) bool { return v == 0 }
	rep, violator = Representatives(g, []int{1, 2}, allowed)
	if rep != nil {
		t.Fatal("restricted SDR must not exist")
	}
	checkViolator(t, g, violator, allowed)
}

func TestRepresentativesEmptySet(t *testing.T) {
	g := graph.Path(3)
	rep, violator := Representatives(g, nil, nil)
	if violator != nil || len(rep) != 0 {
		t.Errorf("empty set: rep=%v violator=%v", rep, violator)
	}
}

func TestRepresentativesDeduplicatesInput(t *testing.T) {
	g := graph.Path(4)
	rep, violator := Representatives(g, []int{1, 1, 2, 2}, nil)
	if violator != nil {
		t.Fatalf("violator %v", violator)
	}
	checkSDR(t, g, []int{1, 2}, nil, rep)
}

// Property: Representatives either returns a valid SDR or a valid Hall
// violator — never both, never neither.
func TestPropertyRepresentativesSoundAndComplete(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		g := graph.RandomGNP(n, 0.35, seed)
		var s []int
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				s = append(s, v)
			}
		}
		rep, violator := Representatives(g, s, nil)
		if (rep == nil) == (violator == nil) && len(s) > 0 {
			return false
		}
		if rep != nil {
			seen := make(map[int]bool)
			for _, v := range graph.NormalizeSet(s) {
				r, ok := rep[v]
				if !ok || !g.HasEdge(v, r) || seen[r] {
					return false
				}
				seen[r] = true
			}
			return true
		}
		// Check the violator certificate.
		nbrs := make(map[int]bool)
		for _, v := range violator {
			for _, u := range g.Neighbors(v) {
				nbrs[u] = true
			}
		}
		return len(nbrs) < len(violator)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
