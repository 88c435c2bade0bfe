package lp

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/defender-game/defender/internal/obs"
	"github.com/defender-game/defender/internal/rat"
)

func r(a, b int64) *big.Rat { return big.NewRat(a, b) }

func ri(a int64) *big.Rat { return big.NewRat(a, 1) }

// enableMetrics turns the default registry on for one test, so the
// simplex counters move, and restores its previous state afterwards.
func enableMetrics(tb testing.TB) {
	reg := obs.Default()
	was := reg.Enabled()
	reg.SetEnabled(true)
	tb.Cleanup(func() { reg.SetEnabled(was) })
}

func maxOptimal(t *testing.T, c []*big.Rat, a [][]*big.Rat, b []*big.Rat) Solution {
	t.Helper()
	sol, err := Maximize(c, a, b)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	return sol
}

func TestMaximizeTextbook(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), 36.
	sol := maxOptimal(t,
		[]*big.Rat{ri(3), ri(5)},
		[][]*big.Rat{
			{ri(1), ri(0)},
			{ri(0), ri(2)},
			{ri(3), ri(2)},
		},
		[]*big.Rat{ri(4), ri(12), ri(18)},
	)
	if sol.Value.Cmp(ri(36)) != 0 {
		t.Errorf("value = %v, want 36", sol.Value)
	}
	if sol.X[0].Cmp(ri(2)) != 0 || sol.X[1].Cmp(ri(6)) != 0 {
		t.Errorf("x = %v, want (2,6)", sol.X)
	}
}

func TestMaximizeDegenerateAndFractional(t *testing.T) {
	// max x + y s.t. x + y <= 1, x <= 1/2 -> value 1.
	sol := maxOptimal(t,
		[]*big.Rat{ri(1), ri(1)},
		[][]*big.Rat{
			{ri(1), ri(1)},
			{ri(1), ri(0)},
		},
		[]*big.Rat{ri(1), r(1, 2)},
	)
	if sol.Value.Cmp(ri(1)) != 0 {
		t.Errorf("value = %v, want 1", sol.Value)
	}
}

func TestMaximizeUnbounded(t *testing.T) {
	// max x with only x - y <= 1: y free upward drags x unbounded.
	sol, err := Maximize(
		[]*big.Rat{ri(1), ri(0)},
		[][]*big.Rat{{ri(1), ri(-1)}},
		[]*big.Rat{ri(1)},
	)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestMaximizeInfeasible(t *testing.T) {
	// x <= -1 with x >= 0 is infeasible.
	sol, err := Maximize(
		[]*big.Rat{ri(1)},
		[][]*big.Rat{{ri(1)}},
		[]*big.Rat{ri(-1)},
	)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestMaximizePhaseOneNeeded(t *testing.T) {
	// max x + y s.t. -x - y <= -2 (i.e. x+y >= 2), x <= 3, y <= 3.
	// Optimum 6 at (3,3); the start basis is infeasible.
	sol := maxOptimal(t,
		[]*big.Rat{ri(1), ri(1)},
		[][]*big.Rat{
			{ri(-1), ri(-1)},
			{ri(1), ri(0)},
			{ri(0), ri(1)},
		},
		[]*big.Rat{ri(-2), ri(3), ri(3)},
	)
	if sol.Value.Cmp(ri(6)) != 0 {
		t.Errorf("value = %v, want 6", sol.Value)
	}
}

func TestMaximizePhaseOneEquality(t *testing.T) {
	// Encode x + y = 1 as two inequalities, maximize 2x + y -> x=1, value 2.
	sol := maxOptimal(t,
		[]*big.Rat{ri(2), ri(1)},
		[][]*big.Rat{
			{ri(1), ri(1)},
			{ri(-1), ri(-1)},
		},
		[]*big.Rat{ri(1), ri(-1)},
	)
	if sol.Value.Cmp(ri(2)) != 0 {
		t.Errorf("value = %v, want 2", sol.Value)
	}
	if sol.X[0].Cmp(ri(1)) != 0 || sol.X[1].Sign() != 0 {
		t.Errorf("x = %v, want (1,0)", sol.X)
	}
}

func TestMaximizeValidation(t *testing.T) {
	if _, err := Maximize([]*big.Rat{ri(1)}, [][]*big.Rat{{ri(1), ri(2)}}, []*big.Rat{ri(1)}); !errors.Is(err, ErrBadProgram) {
		t.Error("ragged row must fail")
	}
	if _, err := Maximize([]*big.Rat{ri(1)}, [][]*big.Rat{{ri(1)}}, []*big.Rat{ri(1), ri(2)}); !errors.Is(err, ErrBadProgram) {
		t.Error("bound mismatch must fail")
	}
	if _, err := Maximize([]*big.Rat{nil}, nil, nil); !errors.Is(err, ErrBadProgram) {
		t.Error("nil objective must fail")
	}
	if _, err := Maximize([]*big.Rat{ri(1)}, [][]*big.Rat{{nil}}, []*big.Rat{ri(1)}); !errors.Is(err, ErrBadProgram) {
		t.Error("nil coefficient must fail")
	}
	if _, err := Maximize([]*big.Rat{ri(1)}, [][]*big.Rat{{ri(1)}}, []*big.Rat{nil}); !errors.Is(err, ErrBadProgram) {
		t.Error("nil bound must fail")
	}
	// Only this file's phase one takes a negative bound; the production
	// solve starts from the slack basis and refuses one.
	p, err := newProgram([]*big.Rat{ri(1)}, [][]*big.Rat{{ri(1)}}, []*big.Rat{ri(-1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.solve(context.Background()); !errors.Is(err, ErrBadProgram) {
		t.Errorf("negative bound: err = %v, want ErrBadProgram", err)
	}
}

// checkOptimality verifies an Optimal solution satisfies primal
// feasibility, dual feasibility and strong duality — exact certificates.
func checkOptimality(c []*big.Rat, a [][]*big.Rat, b []*big.Rat, sol Solution) bool {
	// Primal feasibility: Ax <= b, x >= 0.
	for _, xj := range sol.X {
		if xj.Sign() < 0 {
			return false
		}
	}
	for i, row := range a {
		lhs := new(big.Rat)
		for j := range row {
			lhs.Add(lhs, new(big.Rat).Mul(row[j], sol.X[j]))
		}
		if lhs.Cmp(b[i]) > 0 {
			return false
		}
	}
	// Dual feasibility: y >= 0, A^T y >= c.
	for _, yi := range sol.Dual {
		if yi.Sign() < 0 {
			return false
		}
	}
	for j := range c {
		lhs := new(big.Rat)
		for i := range a {
			lhs.Add(lhs, new(big.Rat).Mul(a[i][j], sol.Dual[i]))
		}
		if lhs.Cmp(c[j]) < 0 {
			return false
		}
	}
	// Strong duality: c·x = b·y.
	by := new(big.Rat)
	for i := range b {
		by.Add(by, new(big.Rat).Mul(b[i], sol.Dual[i]))
	}
	return by.Cmp(sol.Value) == 0
}

// Property: on random bounded programs the solver returns certified optima.
func TestPropertyDualityCertificates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		m := 1 + rng.Intn(4)
		c := make([]*big.Rat, n)
		for j := range c {
			c[j] = big.NewRat(int64(rng.Intn(7)-2), 1)
		}
		a := make([][]*big.Rat, m)
		for i := range a {
			a[i] = make([]*big.Rat, n)
			for j := range a[i] {
				a[i][j] = big.NewRat(int64(rng.Intn(5)), int64(1+rng.Intn(2)))
			}
		}
		b := make([]*big.Rat, m)
		for i := range b {
			b[i] = big.NewRat(int64(rng.Intn(9)), 1)
		}
		// Add a box row to force boundedness.
		box := make([]*big.Rat, n)
		for j := range box {
			box[j] = big.NewRat(1, 1)
		}
		a = append(a, box)
		b = append(b, big.NewRat(20, 1))

		sol, err := Maximize(c, a, b)
		if err != nil {
			return false
		}
		if sol.Status != Optimal {
			// b >= 0 here, so the program is feasible; boxed, so bounded.
			return false
		}
		return checkOptimality(c, a, b, sol)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: with negative bounds mixed in, any Optimal answer still carries
// exact certificates, and Infeasible answers have no obvious witness taken
// at face value (spot-checked by trying x = 0).
func TestPropertyPhaseOneCertificates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3)
		m := 2 + rng.Intn(3)
		c := make([]*big.Rat, n)
		for j := range c {
			c[j] = big.NewRat(int64(rng.Intn(5)-2), 1)
		}
		a := make([][]*big.Rat, m)
		for i := range a {
			a[i] = make([]*big.Rat, n)
			for j := range a[i] {
				a[i][j] = big.NewRat(int64(rng.Intn(7)-3), 1)
			}
		}
		b := make([]*big.Rat, m)
		for i := range b {
			b[i] = big.NewRat(int64(rng.Intn(9)-3), 1)
		}
		box := make([]*big.Rat, n)
		for j := range box {
			box[j] = big.NewRat(1, 1)
		}
		a = append(a, box)
		b = append(b, big.NewRat(10, 1))

		sol, err := Maximize(c, a, b)
		if err != nil {
			return false
		}
		switch sol.Status {
		case Optimal:
			return checkOptimality(c, a, b, sol)
		case Infeasible:
			// x = 0 must genuinely violate some constraint (b_i < 0).
			for i := range b {
				if b[i].Sign() < 0 {
					return true
				}
			}
			return false
		case Unbounded:
			return false // boxed: impossible
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || Unbounded.String() != "unbounded" || Infeasible.String() != "infeasible" {
		t.Error("status strings wrong")
	}
	if Status(99).String() != "status(99)" {
		t.Error("unknown status string wrong")
	}
}

// Maximize solves
//
//	max  c·x   subject to   A x <= b,   x >= 0
//
// exactly. b may have negative entries; a phase-one start is used when
// needed. Inputs are not mutated.
func Maximize(c []*big.Rat, a [][]*big.Rat, b []*big.Rat) (Solution, error) {
	p, err := newProgram(c, a, b)
	if err != nil {
		return Solution{}, err
	}
	s, err := p.solveTwoPhase(context.Background()) // never cancelled
	if err != nil {
		return Solution{}, err
	}
	return s.solution(), nil
}

// solveTwoPhase is the production solve when the slack basis is feasible.
// Otherwise a single-artificial phase one finds a feasible basis first:
// over [x | a0 | slacks], with a0's column all −1, it pivots a0 into the
// most-violated row (making β nonnegative) and maximizes −a0. The program
// is feasible iff a0 ends at zero; a0 is then driven out of the basis,
// and phase two continues from that basis on p itself.
func (p *program) solveTwoPhase(ctx context.Context) (*solver, error) {
	worst := -1
	for i := range p.b {
		if p.b[i].Sign() < 0 && (worst == -1 || p.b[i].Cmp(&p.b[worst]) < 0) {
			worst = i
		}
	}
	if worst == -1 {
		return p.solve(ctx)
	}
	a0 := p.n
	p1 := &program{
		m: p.m, n: p.n + 1, colPtr: append(slices.Clone(p.colPtr), len(p.rows)+p.m),
		rows: slices.Clone(p.rows), vals: slices.Clone(p.vals), c: rat.NewVec(p.n + 1), b: p.b,
	}
	for i := 0; i < p.m; i++ {
		p1.rows = append(p1.rows, i)
		p1.vals = append(p1.vals, *new(rat.Rat).SetInt64(-1))
	}
	p1.c[a0].SetInt64(-1)
	s := newSolver(p1)
	s.column(a0)
	s.pivot(worst, a0)
	s.loadObjective()
	// Unbounded cannot happen: the phase-one objective −a0 is <= 0.
	if _, err := s.optimize(ctx); err != nil {
		return s, err
	}
	for i, v := range s.basis {
		if v != a0 {
			continue
		}
		if s.row(i)[p.m].Sign() != 0 {
			s.status = Infeasible
			return s, nil
		}
		// Degenerate: a0 basic at zero. Row i of B⁻¹[A | I] is nonzero
		// on the slack columns at least, so some column pivots a0 out.
		for j := 0; j < p1.n+p.m; j++ {
			if j == a0 {
				continue
			}
			if s.column(j); s.alpha[i].Sign() != 0 {
				s.pivot(i, j)
				break
			}
		}
	}
	// Renumber onto p: the slacks sit one index lower without a0.
	for i, v := range s.basis {
		if v > a0 {
			s.basis[i] = v - 1
		}
	}
	s.setProgram(p)
	s.loadObjective()
	var err error
	s.status, err = s.optimize(ctx)
	return s, err
}

// loadObjective recomputes y = d_B·B⁻¹ from scratch for the costs −c.
func (s *solver) loadObjective() {
	s.y.Zero()
	var d rat.Rat
	for i, v := range s.basis {
		if v < s.p.n {
			s.axpy(s.y, d.Neg(&s.p.c[v]), s.row(i)[:s.p.m])
		}
	}
}

// newProgram validates a dense program and reads its nonzeros into
// sparse columns.
func newProgram(c []*big.Rat, a [][]*big.Rat, b []*big.Rat) (*program, error) {
	n, m := len(c), len(a)
	if len(b) != m {
		return nil, fmt.Errorf("%w: %d constraint rows but %d bounds", ErrBadProgram, m, len(b))
	}
	for j, cj := range c {
		if cj == nil {
			return nil, fmt.Errorf("%w: nil objective coefficient %d", ErrBadProgram, j)
		}
	}
	for i, row := range a {
		if len(row) != n {
			return nil, fmt.Errorf("%w: row %d has %d coefficients, want %d", ErrBadProgram, i, len(row), n)
		}
		for j, e := range row {
			if e == nil {
				return nil, fmt.Errorf("%w: nil coefficient at (%d,%d)", ErrBadProgram, i, j)
			}
		}
		if b[i] == nil {
			return nil, fmt.Errorf("%w: nil bound %d", ErrBadProgram, i)
		}
	}
	p := &program{m: m, n: n, colPtr: make([]int, n+1), c: rat.FromBig(c), b: rat.FromBig(b)}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			if a[i][j].Sign() != 0 {
				p.rows = append(p.rows, i)
				p.vals = append(p.vals, *new(rat.Rat).SetBig(a[i][j]))
			}
		}
		p.colPtr[j+1] = len(p.rows)
	}
	return p, nil
}
