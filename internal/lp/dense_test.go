package lp

import (
	"fmt"
	"math/big"

	"github.com/defender-game/defender/internal/rat"
)

// The dense tableau below is the engine the package shipped before the
// revised simplex: every pivot sweeps all (m+1) × (n+m+2) cells, the
// entering column is the first with a negative reduced cost (Bland's
// rule), and a single-artificial phase one handles negative bounds. It is
// kept only as the differential oracle of revised_test.go. The revised
// solver prices differently, so the two agree on status and exact value,
// not on the pivots taken or, where the optimum is not unique, on the
// optimal vertex.

// denseTableau is the dense simplex tableau:
//
//	columns: [ x_0..x_{n-1} | s_0..s_{m-1} | a0 | rhs ]
//	rows:    m constraint rows, then the objective row.
//
// Column n+m is the single artificial variable used by phase one; it is
// never allowed to re-enter during phase two. basis[i] is the variable
// index basic in row i.
type denseTableau struct {
	n, m  int
	cells []rat.Vec
	basis []int
	objC  rat.Vec

	factor, prod, inv, ratio, best rat.Rat
}

// maximizeDense solves max c·x s.t. Ax <= b, x >= 0 on the dense tableau.
func maximizeDense(c []*big.Rat, a [][]*big.Rat, b []*big.Rat) (Solution, error) {
	n, m := len(c), len(a)
	if len(b) != m {
		return Solution{}, fmt.Errorf("%w: %d constraint rows but %d bounds", ErrBadProgram, m, len(b))
	}
	for i, row := range a {
		if len(row) != n {
			return Solution{}, fmt.Errorf("%w: row %d has %d coefficients, want %d", ErrBadProgram, i, len(row), n)
		}
	}
	t, err := newDenseTableau(c, a, b)
	if err != nil {
		return Solution{}, err
	}
	if t.needsPhaseOne() && t.phaseOne() == Infeasible {
		return Solution{Status: Infeasible}, nil
	}
	if t.optimize() == Unbounded {
		return Solution{Status: Unbounded}, nil
	}
	return t.extract(), nil
}

func (t *denseTableau) width() int { return t.n + t.m + 2 }
func (t *denseTableau) art() int   { return t.n + t.m }
func (t *denseTableau) rhs() int   { return t.n + t.m + 1 }

func newDenseTableau(c []*big.Rat, a [][]*big.Rat, b []*big.Rat) (*denseTableau, error) {
	n, m := len(c), len(a)
	t := &denseTableau{n: n, m: m, basis: make([]int, m), objC: rat.NewVec(n)}
	for j, cj := range c {
		if cj == nil {
			return nil, fmt.Errorf("%w: nil objective coefficient %d", ErrBadProgram, j)
		}
		t.objC[j].SetBig(cj)
	}
	t.cells = make([]rat.Vec, m+1)
	for i := 0; i <= m; i++ {
		t.cells[i] = rat.NewVec(t.width())
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if a[i][j] == nil {
				return nil, fmt.Errorf("%w: nil coefficient at (%d,%d)", ErrBadProgram, i, j)
			}
			t.cells[i][j].SetBig(a[i][j])
		}
		t.cells[i][n+i].SetInt64(1)
		t.cells[i][t.art()].SetInt64(-1)
		if b[i] == nil {
			return nil, fmt.Errorf("%w: nil bound %d", ErrBadProgram, i)
		}
		t.cells[i][t.rhs()].SetBig(b[i])
		t.basis[i] = n + i
	}
	t.loadObjective()
	return t, nil
}

func (t *denseTableau) loadObjective() {
	obj := t.cells[t.m]
	obj.Zero()
	for j := 0; j < t.n; j++ {
		obj[j].Neg(&t.objC[j])
	}
	obj[t.art()].SetInt64(1)
	t.priceOutBasis()
}

func (t *denseTableau) loadPhaseOneObjective() {
	obj := t.cells[t.m]
	obj.Zero()
	obj[t.art()].SetInt64(1)
	t.priceOutBasis()
}

func (t *denseTableau) priceOutBasis() {
	obj := t.cells[t.m]
	for i := 0; i < t.m; i++ {
		bj := t.basis[i]
		if obj[bj].Sign() == 0 {
			continue
		}
		t.factor.Set(&obj[bj])
		row := t.cells[i]
		for j := range obj {
			if row[j].Sign() != 0 {
				t.prod.Mul(&t.factor, &row[j])
				obj[j].Sub(&obj[j], &t.prod)
			}
		}
	}
}

func (t *denseTableau) needsPhaseOne() bool {
	for i := 0; i < t.m; i++ {
		if t.cells[i][t.rhs()].Sign() < 0 {
			return true
		}
	}
	return false
}

func (t *denseTableau) phaseOne() Status {
	worst := 0
	for i := 1; i < t.m; i++ {
		if t.cells[i][t.rhs()].Cmp(&t.cells[worst][t.rhs()]) < 0 {
			worst = i
		}
	}
	t.pivot(worst, t.art())
	t.loadPhaseOneObjective()
	if t.optimize() == Unbounded {
		return Infeasible
	}
	for i, bj := range t.basis {
		if bj != t.art() {
			continue
		}
		if t.cells[i][t.rhs()].Sign() != 0 {
			return Infeasible
		}
		for j := 0; j < t.n+t.m; j++ {
			if t.cells[i][j].Sign() != 0 {
				t.pivot(i, j)
				break
			}
		}
		break
	}
	t.loadObjective()
	return Optimal
}

func (t *denseTableau) optimize() Status {
	obj := t.cells[t.m]
	for {
		pc := -1
		for j := 0; j < t.art(); j++ {
			if obj[j].Sign() < 0 {
				pc = j
				break
			}
		}
		if pc == -1 {
			return Optimal
		}
		pr := -1
		for i := 0; i < t.m; i++ {
			if t.cells[i][pc].Sign() <= 0 {
				continue
			}
			t.ratio.Quo(&t.cells[i][t.rhs()], &t.cells[i][pc])
			if pr == -1 {
				pr = i
				t.best.Set(&t.ratio)
				continue
			}
			if c := t.ratio.Cmp(&t.best); c < 0 || (c == 0 && t.basis[i] < t.basis[pr]) {
				pr = i
				t.best.Set(&t.ratio)
			}
		}
		if pr == -1 {
			return Unbounded
		}
		t.pivot(pr, pc)
	}
}

func (t *denseTableau) pivot(pr, pc int) {
	prow := t.cells[pr]
	t.inv.Inv(&prow[pc])
	for j := range prow {
		if prow[j].Sign() != 0 {
			prow[j].Mul(&prow[j], &t.inv)
		}
	}
	for i := 0; i <= t.m; i++ {
		if i == pr {
			continue
		}
		row := t.cells[i]
		if row[pc].Sign() == 0 {
			continue
		}
		t.factor.Set(&row[pc])
		for j := range row {
			if prow[j].Sign() != 0 {
				t.prod.Mul(&t.factor, &prow[j])
				row[j].Sub(&row[j], &t.prod)
			}
		}
	}
	t.basis[pr] = pc
}

func (t *denseTableau) extract() Solution {
	x := rat.NewVec(t.n)
	for i, bj := range t.basis {
		if bj < t.n {
			x[bj].Set(&t.cells[i][t.rhs()])
		}
	}
	var value, prod rat.Rat
	for j := 0; j < t.n; j++ {
		prod.Mul(&t.objC[j], &x[j])
		value.Add(&value, &prod)
	}
	dual := make([]*big.Rat, t.m)
	obj := t.cells[t.m]
	for i := 0; i < t.m; i++ {
		dual[i] = obj[t.n+i].Big()
	}
	return Solution{Status: Optimal, Value: value.Big(), X: x.ToBig(), Dual: dual}
}

// solveZeroSumDense is the zero-sum reduction as it ran on the dense
// tableau: transpose when the row side is the larger, shift every
// payoff to >= 1, and solve max Σu s.t. M'u <= 1 with explicit
// big.Rat matrices.
func solveZeroSumDense(m [][]*big.Rat) (GameSolution, error) {
	rows, cols := len(m), len(m[0])
	if rows > cols {
		nt := make([][]*big.Rat, cols)
		for j := 0; j < cols; j++ {
			nt[j] = make([]*big.Rat, rows)
			for i := 0; i < rows; i++ {
				nt[j][i] = new(big.Rat).Neg(m[i][j])
			}
		}
		gs, err := solveZeroSumDense(nt)
		if err != nil {
			return GameSolution{}, err
		}
		return GameSolution{Value: new(big.Rat).Neg(gs.Value), Row: gs.Col, Col: gs.Row}, nil
	}
	shift := new(big.Rat).Set(m[0][0])
	for _, row := range m {
		for _, e := range row {
			if e.Cmp(shift) < 0 {
				shift.Set(e)
			}
		}
	}
	shift.Sub(big.NewRat(1, 1), shift)
	a := make([][]*big.Rat, rows)
	for i := range a {
		a[i] = make([]*big.Rat, cols)
		for j := range a[i] {
			a[i][j] = new(big.Rat).Add(m[i][j], shift)
		}
	}
	c := make([]*big.Rat, cols)
	for j := range c {
		c[j] = big.NewRat(1, 1)
	}
	b := make([]*big.Rat, rows)
	for i := range b {
		b[i] = big.NewRat(1, 1)
	}
	sol, err := maximizeDense(c, a, b)
	if err != nil {
		return GameSolution{}, err
	}
	if sol.Status != Optimal || sol.Value.Sign() <= 0 {
		return GameSolution{}, fmt.Errorf("lp: dense zero-sum reduction returned %v", sol.Status)
	}
	v := new(big.Rat).Inv(sol.Value)
	col := make([]*big.Rat, cols)
	for j := range col {
		col[j] = new(big.Rat).Mul(sol.X[j], v)
	}
	row := make([]*big.Rat, rows)
	for i := range row {
		row[i] = new(big.Rat).Mul(sol.Dual[i], v)
	}
	return GameSolution{Value: new(big.Rat).Sub(v, shift), Row: row, Col: col}, nil
}
