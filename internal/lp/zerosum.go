package lp

import (
	"context"
	"fmt"
	"math/big"
	"strconv"

	"github.com/defender-game/defender/internal/obs"
	"github.com/defender-game/defender/internal/rat"
)

// GameSolution is an exact minimax solution of a two-player zero-sum
// matrix game.
type GameSolution struct {
	// Value is the game value: the payoff the row player (maximizer) can
	// guarantee and the column player (minimizer) can cap.
	Value *big.Rat
	// Row is the row player's optimal mixed strategy.
	Row []*big.Rat
	// Col is the column player's optimal mixed strategy.
	Col []*big.Rat
}

// SolveZeroSum computes the exact value and optimal mixed strategies of
// the zero-sum game with payoff matrix m, where m[i][j] is the payoff to
// the ROW player (the maximizer) when row i meets column j.
//
// The game is reduced to a standard-form LP by the classical positive-
// shift construction: with M' = M + s entrywise positive, the column
// player's program  max Σu  s.t.  M'u <= 1, u >= 0  has optimum 1/V', the
// optimal u rescales to the column strategy, and the LP duals rescale to
// the row strategy. Everything is exact; the minimax guarantees
//
//	min_j (row · M)_j = Value = max_i (M · col)_i
//
// hold as rational identities (asserted by this package's tests).
func SolveZeroSum(m [][]*big.Rat) (GameSolution, error) {
	return SolveZeroSumCtx(context.Background(), m)
}

// SolveZeroSumCtx is SolveZeroSum under ctx: the whole solve —
// reduction, simplex, strategy extraction — is timed as one "lp.simplex"
// span (histogram lp.simplex.seconds), so a request waterfall shows how
// much of a solve was exact pivoting. The simplex observes ctx once per
// pivot and returns ctx.Err() when it is cancelled or past its deadline.
func SolveZeroSumCtx(ctx context.Context, m [][]*big.Rat) (GameSolution, error) {
	sp, _ := obs.Default().StartSpanCtx(ctx, "lp.simplex")
	sp.Annotate("rows", strconv.Itoa(len(m)))
	defer sp.End()
	p, transpose, err := zeroSumProgram(m)
	if err != nil {
		return GameSolution{}, err
	}
	// max Σu s.t. (M + s)u <= 1, u >= 0 has optimum 1/V' > 0 for the
	// shifted value V'; u and the duals rescale to the strategies.
	s, err := p.solve(ctx)
	if err != nil {
		return GameSolution{}, err
	}
	sol := s.solution()
	if sol.Status != Optimal || sol.Value.Sign() <= 0 {
		// Cannot happen for a finite positive matrix: the feasible region
		// is a nonempty polytope with positive optimum.
		return GameSolution{}, fmt.Errorf("lp: zero-sum reduction returned %v", sol.Status)
	}
	shiftedValue := new(big.Rat).Inv(sol.Value) // V' = 1/Σu
	col := make([]*big.Rat, p.n)
	for j := range col {
		col[j] = new(big.Rat).Mul(sol.X[j], shiftedValue) // lint:invariant(ratraw): each strategy weight escapes into the returned solution
	}
	row := make([]*big.Rat, p.m)
	for i := range row {
		row[i] = new(big.Rat).Mul(sol.Dual[i], shiftedValue) // lint:invariant(ratraw): each strategy weight escapes into the returned solution
	}
	value := new(big.Rat).Sub(shiftedValue, p.shift.Big())
	if transpose {
		return GameSolution{Value: value.Neg(value), Row: col, Col: row}, nil
	}
	return GameSolution{Value: value, Row: row, Col: col}, nil
}

// zeroSumProgram validates the payoff matrix and builds the LP of the
// positive-shift reduction, transposed when the row side is the larger;
// transpose reports which.
func zeroSumProgram(m [][]*big.Rat) (*program, bool, error) {
	rows := len(m)
	if rows == 0 {
		return nil, false, fmt.Errorf("%w: empty payoff matrix", ErrBadProgram)
	}
	cols := len(m[0])
	if cols == 0 {
		return nil, false, fmt.Errorf("%w: empty payoff row", ErrBadProgram)
	}
	for i, row := range m {
		if len(row) != cols {
			return nil, false, fmt.Errorf("%w: ragged payoff matrix at row %d", ErrBadProgram, i)
		}
		for j, e := range row {
			if e == nil {
				return nil, false, fmt.Errorf("%w: nil payoff at (%d,%d)", ErrBadProgram, i, j)
			}
		}
	}

	// The reduction uses the rows as LP constraints, so B⁻¹ is rows×rows.
	// When the row side is the big one (e.g. C(m,k) defender tuples
	// against n vertices), solve the transposed game instead: negating
	// and transposing swaps the players, so value(M) = −value(−Mᵀ) with
	// the strategies exchanged.
	transpose := rows > cols
	if transpose {
		rows, cols = cols, rows
	}
	// One pass reads the nonzeros into sparse columns and finds the
	// minimum entry; the shift s = 1 − min makes M + s >= 1 entrywise
	// without ever materializing the shifted matrix.
	var lo rat.Rat
	p := sparseProgram(rows, cols, func(e *rat.Rat, i, j int) {
		if transpose {
			e.Neg(e.SetBig(m[j][i]))
		} else {
			e.SetBig(m[i][j])
		}
		if (i == 0 && j == 0) || e.Cmp(&lo) < 0 {
			lo.Set(e)
		}
	})
	p.c, p.b = ones(cols), ones(rows)
	p.shift.SetInt64(1)
	p.shift.Sub(&p.shift, &lo)
	return p, transpose, nil
}

func ones(n int) rat.Vec {
	v := rat.NewVec(n)
	for i := range v {
		v[i].SetInt64(1)
	}
	return v
}
