package core

import (
	"testing"
	"testing/quick"

	"github.com/defender-game/defender/internal/game"
	"github.com/defender-game/defender/internal/graph"
)

func TestGCDAndLCM(t *testing.T) {
	tests := []struct {
		a, b, gcd, lcm int
	}{
		{1, 1, 1, 1},
		{4, 6, 2, 12},
		{6, 4, 2, 12},
		{7, 13, 1, 91},
		{12, 12, 12, 12},
		{5, 10, 5, 10},
	}
	for _, tt := range tests {
		if got := gcd(tt.a, tt.b); got != tt.gcd {
			t.Errorf("gcd(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.gcd)
		}
		got, err := lcm(tt.a, tt.b)
		if err != nil {
			t.Errorf("lcm(%d,%d): %v", tt.a, tt.b, err)
		} else if got != tt.lcm {
			t.Errorf("lcm(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.lcm)
		}
	}
}

func TestLCMOverflow(t *testing.T) {
	// Two coprime values near 2^32 whose product exceeds MaxInt: the old
	// unchecked a/gcd*b silently wrapped here.
	const a, b = 1<<32 - 1, 1<<32 + 1
	if v, err := lcm(a, b); err == nil {
		t.Fatalf("lcm(%d, %d) = %d, want overflow error", a, b, v)
	}
	// Non-coprime operands stay in range even when a*b would overflow.
	const big = 1 << 40
	v, err := lcm(big, big)
	if err != nil || v != big {
		t.Fatalf("lcm(%d, %d) = %d, %v; want %d", big, big, v, err, big)
	}
}

func TestCyclicTuplesKnownShapes(t *testing.T) {
	g := graph.Cycle(6)
	ids := []int{0, 1, 2, 3, 4, 5}

	tests := []struct {
		k         int
		wantDelta int
		wantMult  int // tuples containing each edge: k/gcd(E,k)
	}{
		{1, 6, 1},
		{2, 3, 1},
		{3, 2, 1},
		{4, 3, 2},
		{5, 6, 5},
		{6, 1, 1},
	}
	for _, tt := range tests {
		tuples, err := CyclicTuples(g, ids, tt.k)
		if err != nil {
			t.Fatalf("k=%d: %v", tt.k, err)
		}
		if len(tuples) != tt.wantDelta {
			t.Errorf("k=%d: δ = %d, want %d", tt.k, len(tuples), tt.wantDelta)
		}
		mult := edgeMultiplicity(tuples)
		if len(mult) != len(ids) {
			t.Errorf("k=%d: only %d of %d edges used", tt.k, len(mult), len(ids))
		}
		for id, m := range mult {
			if m != tt.wantMult {
				t.Errorf("k=%d: edge %d multiplicity %d, want %d", tt.k, id, m, tt.wantMult)
			}
		}
		for _, tp := range tuples {
			if tp.Size() != tt.k {
				t.Errorf("k=%d: tuple %v has size %d", tt.k, tp, tp.Size())
			}
		}
	}
}

func TestCyclicTuplesRespectsLabelOrder(t *testing.T) {
	// Non-contiguous edge IDs in custom order must be windowed in the given
	// order, not by ID.
	g := graph.Cycle(5)
	ids := []int{3, 0, 4}
	tuples, err := CyclicTuples(g, ids, 2)
	if err != nil {
		t.Fatal(err)
	}
	// E=3, k=2 => δ=3: windows (3,0),(4,3),(0,4).
	if len(tuples) != 3 {
		t.Fatalf("δ = %d, want 3", len(tuples))
	}
	wantKeys := map[string]bool{"0,3": true, "3,4": true, "0,4": true}
	for _, tp := range tuples {
		if !wantKeys[tp.Key()] {
			t.Errorf("unexpected tuple %v", tp)
		}
	}
}

func TestCyclicTuplesErrors(t *testing.T) {
	g := graph.Cycle(4)
	if _, err := CyclicTuples(g, []int{0, 1}, 0); err == nil {
		t.Error("k=0 must fail")
	}
	if _, err := CyclicTuples(g, []int{0, 1}, 3); err == nil {
		t.Error("k > E must fail")
	}
	if _, err := CyclicTuples(g, []int{0, 99}, 1); err == nil {
		t.Error("invalid edge id must fail")
	}
}

// Property: Claim 4.9 — for any E and 1 <= k <= E, the construction yields
// δ = E/gcd(E,k) distinct tuples and each edge appears in exactly
// k/gcd(E,k) of them.
func TestPropertyClaim49(t *testing.T) {
	g := graph.Complete(10) // 45 edges to draw from
	f := func(seed int64) bool {
		e := 1 + int(seed%20+20)%20 // 1..20
		k := 1 + int(seed/7%int64(e)+int64(e))%e
		ids := make([]int, e)
		for i := range ids {
			ids[i] = i
		}
		tuples, err := CyclicTuples(g, ids, k)
		if err != nil {
			return false
		}
		d := gcd(e, k)
		if len(tuples) != e/d {
			return false
		}
		// Distinctness of tuples as sets.
		seen := make(map[string]bool)
		for _, tp := range tuples {
			if seen[tp.Key()] {
				return false
			}
			seen[tp.Key()] = true
		}
		mult := edgeMultiplicity(tuples)
		for _, id := range ids {
			if mult[id] != k/d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEdgeMultiplicityEmpty(t *testing.T) {
	if got := edgeMultiplicity(nil); len(got) != 0 {
		t.Errorf("edgeMultiplicity(nil) = %v", got)
	}
	g := graph.Path(3)
	tp, err := game.NewTupleFromIDs(g, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	mult := edgeMultiplicity([]game.Tuple{tp, tp})
	if mult[0] != 2 || mult[1] != 2 {
		t.Errorf("mult = %v", mult)
	}
}

// edgeMultiplicity counts how many of the given tuples contain each edge
// index, returning a map restricted to edges that occur at least once.
func edgeMultiplicity(tuples []game.Tuple) map[int]int {
	mult := make(map[int]int)
	for _, t := range tuples {
		for _, id := range t.IDs() {
			mult[id]++
		}
	}
	return mult
}
