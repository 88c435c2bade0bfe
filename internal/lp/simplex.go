// Package lp implements an exact linear-programming solver over rationals
// and, on top of it, a solver for two-player zero-sum matrix games. The
// library uses it as an *independent oracle* for equilibrium values: for
// ν = 1 attacker the Tuple model is a constant-sum game, so every Nash
// equilibrium attains the same minimax value — which the LP computes from
// the payoff matrix alone, with no knowledge of matching structure. The
// experiments cross-check k/|EC| against this oracle.
//
// The solver is a revised simplex started from the slack basis, exact at
// every pivot — no floating point anywhere. It keeps the basis inverse
// B⁻¹, the basic solution β and the multipliers y, and reads the
// constraint matrix as sparse columns, so a pivot costs Θ(m²) plus one
// pricing sweep. Pricing is Dantzig's rule — the most negative reduced
// cost enters, ties to the lowest index — with a Bland fallback after a
// run of degenerate pivots, which keeps it finite. When every coefficient
// is ±1 and the costs are integers, as in the tuple-coverage games, the
// sweep runs in int64 on y scaled by the lcm of its denominators;
// otherwise, or when that scaling could overflow, it runs in rationals.
// Only the entering choice is made this way: B⁻¹, β, y, the ratio test
// and the returned values stay exact. Values run on the internal/rat
// kernel: int64 fractions that promote to big.Rat only on overflow
// (DESIGN.md "Exact arithmetic fast path"). The dense Bland tableau the
// package once shipped survives in its tests as the differential oracle.
// It is meant for the small, structured programs arising from games, not
// for industrial LPs.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/bits"

	"github.com/defender-game/defender/internal/obs"
	"github.com/defender-game/defender/internal/rat"
)

// Simplex iteration metrics (catalogued in OBSERVABILITY.md): total solves
// and basis-change pivots, the per-solve pivot distribution, and the two
// pricing decisions — switches into Bland's rule and solves that priced in
// rationals. Pivot counts are the honest cost unit of the exact solver
// (each pivot is a Θ(m²) basis-inverse update plus pricing), so a p99
// blowup here — not wall time — is the first sign of a degenerate program.
var (
	obsSimplexSolves         = obs.Default().Counter("lp.simplex.solves")
	obsSimplexPivots         = obs.Default().Counter("lp.simplex.pivots")
	obsSimplexBlandFallbacks = obs.Default().Counter("lp.simplex.bland_fallbacks")
	obsSimplexRatPricing     = obs.Default().Counter("lp.simplex.rat_pricing")
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
// nil coefficients, a negative bound).
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

// blandAfter is the run of consecutive degenerate pivots after which
// pricing falls back to Bland's rule. The objective rises strictly at
// every non-degenerate pivot, and Bland's rule cannot cycle inside a
// degenerate stretch, so the solve terminates.
const blandAfter = 8

// priceLimit bounds every magnitude of the int64 pricing sweep, leaving
// one bit of headroom so the bound checks themselves cannot overflow.
const priceLimit = 1 << 62

// solver is the revised-simplex state over the variables [x | slacks].
// basis[i] is the variable basic in row i, tab is [B⁻¹ | β] (m×(m+1),
// row-major), and y = d_B·B⁻¹ for the costs d: −c on x, 0 on the slacks.
// Column j's reduced cost r_j = d_j − y·M_j is what a dense tableau keeps
// in its objective row.
type solver struct {
	p      *program
	tab    rat.Vec
	y      rat.Vec
	alpha  rat.Vec // B⁻¹M_q of the column being brought in
	basis  []int
	status Status
	pivots int  // basis changes (lp.simplex.pivots)
	bland  bool // Bland's entering rule instead of Dantzig's
	// Integer pricing: intCols when every a_ij is ±1 and c and the shift
	// are integers, with cMax = max|c_j| and shiftAbs = |shift|. yInt
	// holds y·D for the current sweep's common denominator D, sumY their
	// sum. ratPriced records that some sweep ran in rationals.
	intCols        bool
	cMax, shiftAbs uint64
	yInt           []int64
	sumY           int64
	ratPriced      bool
	// Scratch values: the hot loops allocate nothing on the small path.
	sy, dot, top, rc, f, prod, ratio, best rat.Rat
}

// row returns row i of [B⁻¹ | β]; its last entry is β_i.
func (s *solver) row(i int) rat.Vec { w := s.p.m + 1; return s.tab[i*w : (i+1)*w] }

// solve runs the simplex from the slack basis, which must be feasible:
// a negative bound is ErrBadProgram. ctx is observed once per pivot; a
// cancelled solve returns ctx.Err().
func (p *program) solve(ctx context.Context) (*solver, error) {
	for i := range p.b {
		if p.b[i].Sign() < 0 {
			return nil, fmt.Errorf("%w: bound %d is negative", ErrBadProgram, i)
		}
	}
	s := newSolver(p)
	obsSimplexSolves.Inc()
	defer func() {
		obsSimplexPivotsPerSolve.Observe(float64(s.pivots))
		if s.ratPriced {
			obsSimplexRatPricing.Inc()
		}
	}()
	var err error
	s.status, err = s.optimize(ctx)
	return s, err
}

// newSolver returns the solver at p's slack basis: B⁻¹ = I, β = b, and
// y = 0 because slacks cost nothing.
func newSolver(p *program) *solver {
	m := p.m
	s := &solver{
		p: p, tab: rat.NewVec(m * (m + 1)), y: rat.NewVec(m), alpha: rat.NewVec(m),
		basis: make([]int, m), yInt: make([]int64, m),
	}
	for i := 0; i < m; i++ {
		s.row(i)[i].SetInt64(1)
		s.row(i)[m].Set(&p.b[i])
		s.basis[i] = p.n + i
	}
	s.setProgram(p)
	return s
}

// setProgram points s at p and decides whether p's columns can be priced
// in int64: every a_ij is ±1 and c and the shift are integers.
func (s *solver) setProgram(p *program) {
	s.p, s.intCols = p, false
	shift, ok := integer(&p.shift)
	if !ok {
		return
	}
	for k := range p.vals {
		if a, ok := integer(&p.vals[k]); !ok || a != 1 {
			return
		}
	}
	var cMax uint64
	for j := range p.c {
		a, ok := integer(&p.c[j])
		if !ok {
			return
		}
		cMax = max(cMax, a)
	}
	s.intCols, s.cMax, s.shiftAbs = true, cMax, shift
}

// integer returns |x| when x is an integer of magnitude at most
// priceLimit.
func integer(x *rat.Rat) (uint64, bool) {
	n, d, ok := x.Frac64()
	if !ok || d != 1 || abs64(n) > priceLimit {
		return 0, false
	}
	return abs64(n), true
}

// optimize runs the simplex from a feasible basis. Pricing picks the
// entering column (see price); the leaving row is the minimum ratio with
// ties to the lowest basic variable index, which is also Bland's leaving
// rule. A pivot with a zero ratio is degenerate: after blandAfter of them
// in a row pricing switches to Bland's rule, and the next non-degenerate
// pivot switches it back.
func (s *solver) optimize(ctx context.Context) (Status, error) {
	m := s.p.m
	s.bland = false
	degenerate := 0
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
		if s.best.Sign() != 0 {
			degenerate, s.bland = 0, false
		} else if degenerate++; degenerate == blandAfter {
			s.bland = true
			obsSimplexBlandFallbacks.Inc()
		}
	}
}

// price returns the entering column, leaving its reduced cost in s.rc,
// or -1 at optimality. Dantzig's rule takes the most negative reduced
// cost, ties to the lowest index; Bland's rule (s.bland) the first
// negative one. Slack j = n+i has reduced cost −y_i.
func (s *solver) price() int {
	if s.intCols {
		if d, ok := s.scaleY(); ok {
			return s.priceInt(d)
		}
	}
	s.ratPriced = true
	return s.priceRat()
}

// scaleY sets yInt = y·D and sumY = ΣyInt for D the lcm of y's
// denominators and returns D. It reports false when some scaled reduced
// cost could pass priceLimit: |r_j·D| <= |c_j|·D + (|shift|+1)·Σ|y_i·D|,
// since every column holds at most one ±1 per row.
func (s *solver) scaleY() (int64, bool) {
	d := uint64(1)
	for i := range s.y {
		_, den, ok := s.y[i].Frac64()
		if !ok {
			return 0, false
		}
		if d, ok = mulBound(d/gcd(d, uint64(den)), uint64(den)); !ok {
			return 0, false
		}
	}
	var sumAbs uint64
	s.sumY = 0
	for i := range s.y {
		num, den, _ := s.y[i].Frac64()
		v, ok := mulBound(abs64(num), d/uint64(den))
		if sumAbs += v; !ok || sumAbs > priceLimit {
			return 0, false
		}
		s.yInt[i] = int64(v)
		if num < 0 {
			s.yInt[i] = -s.yInt[i]
		}
		s.sumY += s.yInt[i]
	}
	cd, ok1 := mulBound(s.cMax, d)
	sd, ok2 := mulBound(s.shiftAbs+1, sumAbs)
	return int64(d), ok1 && ok2 && cd+sd <= priceLimit
}

// priceInt is price on the scaled multipliers: r_j·D = −c_j·D −
// shift·ΣY − Σ_{i∈col j} Y_i·a_ij compared as exact integers, which
// orders the columns as r_j does because D > 0.
func (s *solver) priceInt(d int64) int {
	p := s.p
	shift, _, _ := p.shift.Frac64()
	sy := shift * s.sumY
	q, best := -1, int64(0)
	for j := 0; j < p.n; j++ {
		c, _, _ := p.c[j].Frac64()
		r := -c*d - sy
		for k := p.colPtr[j]; k < p.colPtr[j+1]; k++ {
			a, _, _ := p.vals[k].Frac64()
			r -= a * s.yInt[p.rows[k]]
		}
		if r < best {
			q, best = j, r
			if s.bland {
				break
			}
		}
	}
	for i := 0; i < p.m && !(s.bland && q != -1); i++ {
		if r := -s.yInt[i]; r < best {
			q, best = p.n+i, r
		}
	}
	if q != -1 {
		s.rc.SetFrac64(best, d)
	}
	return q
}

// priceRat is price in exact rationals, for programs priceInt cannot
// take.
func (s *solver) priceRat() int {
	p := s.p
	s.y.Sum(&s.sy)
	s.sy.Mul(&s.sy, &p.shift)
	// top tracks the largest c_j + y·A_j + shift·Σy = −r_j seen so far.
	q := -1
	s.top.SetInt64(0)
	for j := 0; j < p.n; j++ {
		s.dot.Add(&p.c[j], &s.sy)
		for k := p.colPtr[j]; k < p.colPtr[j+1]; k++ {
			s.addProd(&s.dot, &s.y[p.rows[k]], &p.vals[k])
		}
		if s.dot.Cmp(&s.top) > 0 {
			q = j
			s.top.Set(&s.dot)
			if s.bland {
				break
			}
		}
	}
	for i := 0; i < p.m && !(s.bland && q != -1); i++ {
		if s.y[i].Cmp(&s.top) > 0 {
			q = p.n + i
			s.top.Set(&s.y[i])
		}
	}
	s.rc.Neg(&s.top)
	return q
}

// mulBound returns a·b and whether it stays within priceLimit.
func mulBound(a, b uint64) (uint64, bool) {
	hi, lo := bits.Mul64(a, b)
	return lo, hi == 0 && lo <= priceLimit
}

// gcd returns gcd(a, b) for b > 0.
func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// abs64 returns |a| as a uint64; correct for MinInt64.
func abs64(a int64) uint64 {
	if a < 0 {
		return -uint64(a)
	}
	return uint64(a)
}

// addProd sets z += x·v. The multiply is skipped when either factor is
// 0 or v is ±1 — the only coefficients of the tuple-coverage games — so
// column updates mostly cost one rational addition per entry.
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
		if q >= p.n {
			a.Set(&row[q-p.n])
			continue
		}
		a.SetInt64(0)
		for k := p.colPtr[q]; k < p.colPtr[q+1]; k++ {
			s.addProd(a, &row[p.rows[k]], &p.vals[k])
		}
		s.addProd(a, &row[m], &p.shift)
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
