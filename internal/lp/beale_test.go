package lp

import (
	"context"
	"math/big"
	"testing"
)

// TestBealeCyclingExample: Beale's classic LP makes naive Dantzig-rule
// simplex cycle forever on degenerate pivots. The run of degenerate pivots
// must switch pricing to Bland's rule (lp.simplex.bland_fallbacks), which
// then terminates at the optimum (value 1/20, x = (1/25, 0, 1, 0)).
//
//	max  3/4 x1 − 150 x2 + 1/50 x3 − 6 x4
//	s.t. 1/4 x1 −  60 x2 − 1/25 x3 + 9 x4 <= 0
//	     1/2 x1 −  90 x2 − 1/50 x3 + 3 x4 <= 0
//	                            x3         <= 1
func TestBealeCyclingExample(t *testing.T) {
	c := []*big.Rat{
		big.NewRat(3, 4), big.NewRat(-150, 1), big.NewRat(1, 50), big.NewRat(-6, 1),
	}
	a := [][]*big.Rat{
		{big.NewRat(1, 4), big.NewRat(-60, 1), big.NewRat(-1, 25), big.NewRat(9, 1)},
		{big.NewRat(1, 2), big.NewRat(-90, 1), big.NewRat(-1, 50), big.NewRat(3, 1)},
		{big.NewRat(0, 1), big.NewRat(0, 1), big.NewRat(1, 1), big.NewRat(0, 1)},
	}
	b := []*big.Rat{new(big.Rat), new(big.Rat), big.NewRat(1, 1)}

	p, err := newProgram(c, a, b)
	if err != nil {
		t.Fatal(err)
	}
	enableMetrics(t)
	before := obsSimplexBlandFallbacks.Value()
	s, err := p.solve(context.Background())
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if obsSimplexBlandFallbacks.Value() == before {
		t.Error("no Bland fallback: Dantzig pricing cycles here, so the solve must fall back")
	}
	sol := s.solution()
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal (the Bland fallback must not cycle)", sol.Status)
	}
	if sol.Value.Cmp(big.NewRat(1, 20)) != 0 {
		t.Errorf("value = %v, want 1/20", sol.Value)
	}
	if sol.X[0].Cmp(big.NewRat(1, 25)) != 0 || sol.X[1].Sign() != 0 ||
		sol.X[2].Cmp(big.NewRat(1, 1)) != 0 || sol.X[3].Sign() != 0 {
		t.Errorf("x = %v, want (1/25, 0, 1, 0)", sol.X)
	}
	if !checkOptimality(c, a, b, sol) {
		t.Error("duality certificates failed")
	}
}

// TestKleeMintyCube: the 3-dimensional Klee–Minty cube — worst case for
// Dantzig pivoting — still solves exactly (value 125 at x = (0,0,125)).
func TestKleeMintyCube(t *testing.T) {
	c := []*big.Rat{big.NewRat(100, 1), big.NewRat(10, 1), big.NewRat(1, 1)}
	a := [][]*big.Rat{
		{big.NewRat(1, 1), new(big.Rat), new(big.Rat)},
		{big.NewRat(20, 1), big.NewRat(1, 1), new(big.Rat)},
		{big.NewRat(200, 1), big.NewRat(20, 1), big.NewRat(1, 1)},
	}
	b := []*big.Rat{big.NewRat(1, 1), big.NewRat(100, 1), big.NewRat(10000, 1)}

	sol, err := Maximize(c, a, b)
	if err != nil {
		t.Fatalf("Maximize: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Value.Cmp(big.NewRat(10000, 1)) != 0 {
		t.Errorf("value = %v, want 10000", sol.Value)
	}
	if !checkOptimality(c, a, b, sol) {
		t.Error("duality certificates failed")
	}
}
