package game

import (
	"math/big"
	"testing"

	"github.com/defender-game/defender/internal/graph"
)

// TestVertexStrategyProbIsDefensiveCopy: mutating a rat returned by Prob
// must not change the stored strategy — the immutability invariant behind
// every exact equilibrium check (and the ratalias analyzer).
func TestVertexStrategyProbIsDefensiveCopy(t *testing.T) {
	s := UniformVertexStrategy([]int{0, 1, 2})

	p := s.Prob(1)
	p.SetInt64(999) // a hostile caller scribbles on the returned rat

	if got := s.Prob(1); got.Cmp(ratOf(1, 3)) != 0 {
		t.Fatalf("stored probability changed to %v after mutating Prob result", got)
	}
	if err := s.validate(3); err != nil {
		t.Fatalf("strategy corrupted by caller-side mutation: %v", err)
	}
}

// TestTupleStrategyProbIsDefensiveCopy is the defender-side twin.
func TestTupleStrategyProbIsDefensiveCopy(t *testing.T) {
	g := graph.Cycle(4)
	t1 := mustTuple(t, g, g.EdgeByID(0), g.EdgeByID(2))
	t2 := mustTuple(t, g, g.EdgeByID(1), g.EdgeByID(3))
	ts, err := UniformTupleStrategy([]Tuple{t1, t2})
	if err != nil {
		t.Fatalf("UniformTupleStrategy: %v", err)
	}

	p := ts.Prob(t1)
	p.Add(p, big.NewRat(5, 1))

	if got := ts.Prob(t1); got.Cmp(ratOf(1, 2)) != 0 {
		t.Fatalf("stored tuple probability changed to %v after mutating Prob result", got)
	}
	if err := ts.validate(g, 2); err != nil {
		t.Fatalf("strategy corrupted by caller-side mutation: %v", err)
	}
}

// TestConstructorsCopyInputProbs: strategies must also be insulated from
// later mutation of the rats the caller constructed them with.
func TestConstructorsCopyInputProbs(t *testing.T) {
	half := ratOf(1, 2)
	s := NewVertexStrategy(map[int]*big.Rat{0: half, 1: ratOf(1, 2)})
	half.SetInt64(7) // caller reuses its rat afterwards

	if got := s.Prob(0); got.Cmp(ratOf(1, 2)) != 0 {
		t.Fatalf("stored probability aliases constructor input: %v", got)
	}
	if err := s.validate(2); err != nil {
		t.Fatalf("strategy corrupted through constructor aliasing: %v", err)
	}
}
