package cover

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/matching"
)

func TestIsExpanderSetLiteralTriangle(t *testing.T) {
	// The DESIGN.md discrepancy example: a triangle with S = {1,2} satisfies
	// the literal definition (members may represent each other) ...
	g := graph.Complete(3)
	ok, violator := IsExpanderSet(g, []int{1, 2})
	if !ok {
		t.Fatalf("literal expander should hold, violator %v", violator)
	}
	// ... but fails the equilibrium-relevant IS-restricted condition.
	rep, violator := IsNEExpander(g, []int{0}, []int{1, 2})
	if rep != nil {
		t.Fatal("NE-expander must fail on the triangle")
	}
	if len(violator) == 0 {
		t.Fatal("violator must be reported")
	}
}

func TestIsNEExpanderAlternatingCycle(t *testing.T) {
	g := graph.Cycle(8)
	is := []int{0, 2, 4, 6}
	vc := []int{1, 3, 5, 7}
	rep, violator := IsNEExpander(g, is, vc)
	if rep == nil {
		t.Fatalf("C8 alternating partition must be an NE-expander, violator %v", violator)
	}
	seen := make(map[int]bool)
	for _, v := range vc {
		r, ok := rep[v]
		if !ok || !g.HasEdge(v, r) || !graph.SetContains(is, r) || seen[r] {
			t.Fatalf("bad representative %d for %d", r, v)
		}
		seen[r] = true
	}
}

func TestIsNEExpanderStarFails(t *testing.T) {
	// Star with IS = {hub}: the leaves cannot all be matched into the hub.
	g := graph.Star(4)
	rep, violator := IsNEExpander(g, []int{0}, []int{1, 2, 3})
	if rep != nil {
		t.Fatal("should fail: three leaves, one hub")
	}
	if len(violator) < 2 {
		t.Fatalf("violator %v too small", violator)
	}
}

func TestIsNEExpanderStarCorrectWay(t *testing.T) {
	// Star with IS = leaves, VC = {hub}: hub has 3 leaf representatives.
	g := graph.Star(4)
	rep, violator := IsNEExpander(g, []int{1, 2, 3}, []int{0})
	if rep == nil {
		t.Fatalf("violator %v", violator)
	}
	if r := rep[0]; r < 1 || r > 3 {
		t.Errorf("hub representative = %d", r)
	}
}

func TestExpanderBruteForceLimit(t *testing.T) {
	g := graph.Complete(30)
	s := make([]int, 25)
	for i := range s {
		s[i] = i
	}
	if _, _, err := ExpanderBruteForce(g, s); err == nil {
		t.Error("25-element set must exceed the brute-force limit")
	}
	if _, _, err := NEExpanderBruteForce(g, nil, s); err == nil {
		t.Error("25-element set must exceed the brute-force limit")
	}
}

// Property: the matching-based decision agrees with subset enumeration for
// the literal definition.
func TestPropertyExpanderLiteralAgreesWithBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		g := graph.RandomGNP(n, 0.4, seed)
		var s []int
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				s = append(s, v)
			}
		}
		fast, _ := IsExpanderSet(g, s)
		slow, _, err := ExpanderBruteForce(g, s)
		return err == nil && fast == slow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: IsNEExpander agrees with subset enumeration.
func TestPropertyNEExpanderAgreesWithBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		g := graph.RandomGNP(n, 0.4, seed)
		// Random bi-partition (IS need not be independent here; the check
		// itself doesn't require it).
		var is, vc []int
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				is = append(is, v)
			} else {
				vc = append(vc, v)
			}
		}
		rep, _ := IsNEExpander(g, is, vc)
		slow, _, err := NEExpanderBruteForce(g, is, vc)
		return err == nil && (rep != nil) == slow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: violators returned by the fast check are genuine violations.
func TestPropertyViolatorCertificates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		g := graph.RandomGNP(n, 0.25, seed)
		var is, vc []int
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				is = append(is, v)
			} else {
				vc = append(vc, v)
			}
		}
		rep, violator := IsNEExpander(g, is, vc)
		if rep != nil {
			return true // nothing to certify
		}
		// Count distinct IS-neighbors of the violator.
		member := make(map[int]bool, len(is))
		for _, v := range is {
			member[v] = true
		}
		nbrs := make(map[int]bool)
		for _, v := range violator {
			g.EachNeighbor(v, func(u int) {
				if member[u] {
					nbrs[u] = true
				}
			})
		}
		return len(nbrs) < len(violator)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// IsExpanderSet decides the literal S-expander condition: every X ⊆ s has
// at least |X| distinct neighbors anywhere in V. On failure it returns a
// concrete violating subset. O(|s| · m) via Kuhn SDR; allocates the
// search scratch of matching.Representatives.
func IsExpanderSet(g *graph.Graph, s []int) (bool, []int) {
	_, violator := matching.Representatives(g, s, nil)
	return violator == nil, violator
}

// ExpanderBruteForce checks the literal S-expander condition by enumerating
// all 2^|s| subsets. It is the test oracle for IsExpanderSet and is limited
// to |s| <= 24 (ErrTooLarge beyond that). O(2^|s| · |s| · Δ); allocates
// the stamp array and any returned violator.
func ExpanderBruteForce(g *graph.Graph, s []int) (bool, []int, error) {
	s = graph.NormalizeSet(s)
	if len(s) > 24 {
		return false, nil, ErrTooLarge
	}
	return expanderBruteForce(g, s, nil)
}

// NEExpanderBruteForce is the exponential oracle for IsNEExpander.
// O(2^|vc| · |vc| · Δ), capped at |vc| <= 24 (ErrTooLarge beyond);
// allocates the membership bitmap and stamp array.
func NEExpanderBruteForce(g *graph.Graph, is, vc []int) (bool, []int, error) {
	vc = graph.NormalizeSet(vc)
	if len(vc) > 24 {
		return false, nil, ErrTooLarge
	}
	member := membership(g.NumVertices(), is)
	return expanderBruteForce(g, vc, member)
}

// expanderBruteForce enumerates every subset X of s and counts the distinct
// neighbors of X (restricted to restrict when non-nil).
func expanderBruteForce(g *graph.Graph, s []int, restrict []bool) (bool, []int, error) {
	n := g.NumVertices()
	seen := make([]int, n) // stamped with the subset index to avoid clearing
	for i := range seen {
		seen[i] = -1
	}
	for mask := 1; mask < 1<<uint(len(s)); mask++ {
		count := 0
		for m := mask; m != 0; m &= m - 1 {
			v := s[bits.TrailingZeros(uint(m))]
			g.EachNeighbor(v, func(u int) {
				if seen[u] != mask && (restrict == nil || restrict[u]) {
					seen[u] = mask
					count++
				}
			})
		}
		if count < bits.OnesCount(uint(mask)) {
			var violator []int
			for m := mask; m != 0; m &= m - 1 {
				violator = append(violator, s[bits.TrailingZeros(uint(m))])
			}
			return false, violator, nil
		}
	}
	return true, nil, nil
}
