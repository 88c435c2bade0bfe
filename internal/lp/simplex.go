// Package lp implements an exact linear-programming solver over rationals
// and, on top of it, a solver for two-player zero-sum matrix games. The
// library uses it as an *independent oracle* for equilibrium values: for
// ν = 1 attacker the Tuple model is a constant-sum game, so every Nash
// equilibrium attains the same minimax value — which the LP computes from
// the payoff matrix alone, with no knowledge of matching structure. The
// experiments cross-check k/|EC| against this oracle.
//
// The solver is a revised simplex with Bland's anti-cycling rule
// (guaranteeing termination) and a single-artificial-variable phase one,
// exact at every pivot — no floating point anywhere. It keeps the basis
// inverse B⁻¹, the basic solution β and the multipliers y, reads the
// constraint matrix as sparse columns and prices them only up to the
// first improving one, so a pivot costs Θ(m²) plus that pricing — and it
// takes exactly the pivots of a dense Bland tableau, which the tests keep
// as the differential oracle. Values run on the internal/rat kernel:
// int64 fractions that promote to big.Rat only on overflow (DESIGN.md
// "Exact arithmetic fast path"). It is meant for the small, structured
// programs arising from games, not for industrial LPs.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math/big"

	"github.com/defender-game/defender/internal/obs"
	"github.com/defender-game/defender/internal/rat"
)

// Simplex iteration metrics (catalogued in OBSERVABILITY.md): total solves
// and basis-change pivots across both phases, plus the per-solve pivot
// distribution. Pivot counts are the honest cost unit of the exact solver
// (each pivot is a Θ(m²) basis-inverse update plus pricing), so a p99
// blowup here — not wall time — is the first sign of a degenerate program.
var (
	obsSimplexSolves         = obs.Default().Counter("lp.simplex.solves")
	obsSimplexPivots         = obs.Default().Counter("lp.simplex.pivots")
	obsSimplexPivotsPerSolve = obs.Default().Histogram("lp.simplex.pivots_per_solve")
)

// Status reports the outcome of an LP solve.
type Status int

const (
	// Optimal: an optimal basic feasible solution was found.
	Optimal Status = iota + 1
	// Unbounded: the objective is unbounded above on the feasible region.
	Unbounded
	// Infeasible: the constraints admit no solution.
	Infeasible
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Unbounded:
		return "unbounded"
	case Infeasible:
		return "infeasible"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// ErrBadProgram is returned for malformed inputs (dimension mismatches,
// nil coefficients).
var ErrBadProgram = errors.New("lp: malformed linear program")

// Solution is the result of solving a standard-form program.
type Solution struct {
	Status Status
	// Value is the optimal objective (nil unless Status == Optimal).
	Value *big.Rat
	// X is the optimal assignment to the n structural variables.
	X []*big.Rat
	// Dual holds the dual values (shadow prices) of the m constraints:
	// for max{c·x : Ax <= b, x >= 0} these are optimal y >= 0 with
	// A^T y >= c and b·y = c·x (strong duality, asserted in the tests).
	Dual []*big.Rat
}

// program is  max c·x  s.t.  (A + shift·J) x <= b, x >= 0  with J the
// all-ones matrix and A in sparse columns: column j's nonzeros are
// rows/vals[colPtr[j]:colPtr[j+1]]. Only the zero-sum reduction sets a
// shift, and there b = 1, so B⁻¹(shift·1) = shift·β.
type program struct {
	m, n   int
	colPtr []int
	rows   []int
	vals   rat.Vec
	shift  rat.Rat
	c, b   rat.Vec
}

// sparseProgram reads the nonzeros of an m×n matrix, column by column,
// through at (which sets e to entry (i, j)). c and b are left to the
// caller.
func sparseProgram(m, n int, at func(e *rat.Rat, i, j int)) *program {
	p := &program{m: m, n: n, colPtr: make([]int, n+1)}
	var e rat.Rat
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			if at(&e, i, j); e.Sign() != 0 {
				p.rows = append(p.rows, i)
				p.vals = append(p.vals, e)
			}
		}
		p.colPtr[j+1] = len(p.rows)
	}
	return p
}

// solver is the revised-simplex state over the variables [x | slacks |
// a0], where the phase-one artificial a0 has column −1. basis[i] is the
// variable basic in row i, tab is [B⁻¹ | β] (m×(m+1), row-major), and
// y = d_B·B⁻¹ for the costs d: −c on x in phase two, 0 in phase one and
// on the slacks, +1 on a0. Column j's reduced cost r_j = d_j − y·M_j is
// what a dense tableau keeps in its objective row.
type solver struct {
	p      *program
	tab    rat.Vec
	y, d   rat.Vec
	alpha  rat.Vec // B⁻¹M_q of the column being brought in
	basis  []int
	status Status
	pivots int // basis changes across both phases (lp.simplex.*)
	// Scratch values: the hot loops allocate nothing on the small path.
	sy, dot, rc, f, prod, ratio, best rat.Rat
}

func (s *solver) art() int { return s.p.n + s.p.m }

// row returns row i of [B⁻¹ | β]; its last entry is β_i.
func (s *solver) row(i int) rat.Vec { w := s.p.m + 1; return s.tab[i*w : (i+1)*w] }

// solve runs both phases. ctx is observed once per pivot; a cancelled
// solve returns ctx.Err().
func (p *program) solve(ctx context.Context) (*solver, error) {
	m := p.m
	s := &solver{
		p: p, tab: rat.NewVec(m * (m + 1)), y: rat.NewVec(m),
		d: rat.NewVec(p.n + m + 1), alpha: rat.NewVec(m), basis: make([]int, m),
	}
	worst := -1
	for i := 0; i < m; i++ {
		s.row(i)[i].SetInt64(1)
		s.row(i)[m].Set(&p.b[i])
		s.basis[i] = p.n + i
		if p.b[i].Sign() < 0 && (worst == -1 || p.b[i].Cmp(&p.b[worst]) < 0) {
			worst = i
		}
	}
	s.d[s.art()].SetInt64(1)
	s.loadObjective(false)
	obsSimplexSolves.Inc()
	defer func() { obsSimplexPivotsPerSolve.Observe(float64(s.pivots)) }()
	if worst >= 0 {
		st, err := s.runPhaseOne(ctx, worst)
		if err != nil || st == Infeasible {
			s.status = st
			return s, err
		}
	}
	var err error
	s.status, err = s.optimize(ctx)
	return s, err
}

// loadObjective sets the phase's structural costs and recomputes
// y = d_B·B⁻¹.
func (s *solver) loadObjective(phaseOne bool) {
	for j := 0; j < s.p.n; j++ {
		if phaseOne {
			s.d[j].SetInt64(0)
		} else {
			s.d[j].Neg(&s.p.c[j])
		}
	}
	s.y.Zero()
	for i, v := range s.basis {
		s.axpy(s.y, &s.d[v], s.row(i)[:s.p.m])
	}
}

// runPhaseOne makes the basis feasible: pivot a0 into the most-violated
// row (making β nonnegative), then minimize a0 with Bland's rule.
// Feasible iff a0 returns to zero; it is then driven out of the basis.
func (s *solver) runPhaseOne(ctx context.Context, worst int) (Status, error) {
	s.column(s.art())
	s.pivot(worst, s.art())
	s.loadObjective(true)
	// Unbounded cannot happen: the phase-one objective −a0 is <= 0.
	if st, err := s.optimize(ctx); err != nil || st == Unbounded {
		return Infeasible, err
	}
	for i, v := range s.basis {
		if v != s.art() {
			continue
		}
		if s.row(i)[s.p.m].Sign() != 0 {
			return Infeasible, nil
		}
		// Degenerate: a0 basic at zero. Pivot it out through the first
		// structural or slack column with a nonzero entry in its row; a
		// fully zero row is redundant and keeps the zero-valued a0.
		for j := 0; j < s.art(); j++ {
			if s.column(j); s.alpha[i].Sign() != 0 {
				s.pivot(i, j)
				break
			}
		}
		break
	}
	s.loadObjective(false)
	return Optimal, nil
}

// optimize runs Bland's rule from a feasible basis: the entering column
// is the lowest-index one with a negative reduced cost (a0 never
// enters), the leaving row the minimum ratio with ties to the lowest
// basic variable index.
func (s *solver) optimize(ctx context.Context) (Status, error) {
	m := s.p.m
	for {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		q := s.price()
		if q == -1 {
			return Optimal, nil
		}
		s.column(q)
		pr := -1
		for i := 0; i < m; i++ {
			if s.alpha[i].Sign() <= 0 {
				continue
			}
			s.ratio.Quo(&s.row(i)[m], &s.alpha[i])
			c := 0
			if pr != -1 {
				c = s.ratio.Cmp(&s.best)
			}
			if pr == -1 || c < 0 || (c == 0 && s.basis[i] < s.basis[pr]) {
				pr = i
				s.best.Set(&s.ratio)
			}
		}
		if pr == -1 {
			return Unbounded, nil
		}
		s.pivot(pr, q)
		// The objective row loses r_q times the new pivot row; on the
		// slack columns it reads −y, so y gains r_q·B⁻¹[pr].
		s.axpy(s.y, &s.rc, s.row(pr)[:m])
	}
}

// price returns the lowest-index structural or slack column with a
// negative reduced cost, leaving that cost in s.rc, or -1 at optimality.
// Columns past the first improving one are never priced.
func (s *solver) price() int {
	p := s.p
	s.y.Sum(&s.sy)
	s.sy.Mul(&s.sy, &p.shift)
	for j := 0; j < p.n; j++ {
		// rc = d_j − (y·A_j + shift·Σy).
		s.dot.Set(&s.sy)
		for k := p.colPtr[j]; k < p.colPtr[j+1]; k++ {
			s.addProd(&s.dot, &s.y[p.rows[k]], &p.vals[k])
		}
		if s.rc.Sub(&s.d[j], &s.dot); s.rc.Sign() < 0 {
			return j
		}
	}
	for i := 0; i < p.m; i++ {
		// A slack costs 0 and has column e_i, so r = −y_i.
		if s.y[i].Sign() > 0 {
			s.rc.Neg(&s.y[i])
			return p.n + i
		}
	}
	return -1
}

// addProd sets z += x·v. The multiply is skipped when either factor is
// 0 or v is ±1 — the only coefficients of the tuple-coverage games — so
// pricing and column updates mostly cost one rational addition per entry.
func (s *solver) addProd(z, x, v *rat.Rat) {
	if x.Sign() == 0 || v.Sign() == 0 {
		return
	}
	if n, d, ok := v.Frac64(); ok && d == 1 && (n == 1 || n == -1) {
		if n == 1 {
			z.Add(z, x)
		} else {
			z.Sub(z, x)
		}
		return
	}
	s.prod.Mul(x, v)
	z.Add(z, &s.prod)
}

// axpy sets dst += f·src entrywise.
func (s *solver) axpy(dst rat.Vec, f *rat.Rat, src rat.Vec) {
	for l := range src {
		s.addProd(&dst[l], &src[l], f)
	}
}

// column sets s.alpha = B⁻¹M_q for variable q.
func (s *solver) column(q int) {
	p, m := s.p, s.p.m
	for i := 0; i < m; i++ {
		a, row := &s.alpha[i], s.row(i)
		switch {
		case q < p.n:
			a.SetInt64(0)
			for k := p.colPtr[q]; k < p.colPtr[q+1]; k++ {
				s.addProd(a, &row[p.rows[k]], &p.vals[k])
			}
			s.addProd(a, &row[m], &p.shift)
		case q < s.art():
			a.Set(&row[q-p.n])
		default:
			// a0's column is −1: minus the row sum of B⁻¹.
			row[:m].Sum(a)
			a.Neg(a)
		}
	}
}

// pivot brings variable q (whose column s.alpha holds) into the basis at
// row pr by one Gauss–Jordan step on [B⁻¹ | β].
func (s *solver) pivot(pr, q int) {
	s.pivots++
	obsSimplexPivots.Inc()
	prow := s.row(pr)
	s.f.Inv(&s.alpha[pr])
	for l := range prow {
		prow[l].Mul(&prow[l], &s.f)
	}
	for i := range s.basis {
		if i != pr && s.alpha[i].Sign() != 0 {
			s.f.Neg(&s.alpha[i])
			s.axpy(s.row(i), &s.f, prow)
		}
	}
	s.basis[pr] = q
}

// solution reads the outcome: the status, and at an optimum x from β, the
// objective value and the duals, which are the slack reduced costs −y.
func (s *solver) solution() Solution {
	p := s.p
	if s.status != Optimal {
		return Solution{Status: s.status}
	}
	x := rat.NewVec(p.n)
	for i, v := range s.basis {
		if v < p.n {
			x[v].Set(&s.row(i)[p.m])
		}
	}
	var value rat.Rat
	for j := range x {
		s.addProd(&value, &x[j], &p.c[j])
	}
	dual := make([]*big.Rat, p.m)
	for i := range dual {
		dual[i] = s.prod.Neg(&s.y[i]).Big()
	}
	return Solution{Status: Optimal, Value: value.Big(), X: x.ToBig(), Dual: dual}
}
