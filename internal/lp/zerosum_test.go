package lp

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// checkGameSolution verifies the exact minimax certificates of gs.
func checkGameSolution(t *testing.T, m [][]*big.Rat, gs GameSolution) {
	t.Helper()
	if err := gameCertificate(m, gs); err != nil {
		t.Fatal(err)
	}
}

// gameCertificate checks the exact minimax certificates: both strategies
// are distributions, the row strategy guarantees >= value against every
// column, and the column strategy caps every row at <= value. These are
// the LP's primal and dual feasibility, and their meeting at the value is
// strong duality.
func gameCertificate(m [][]*big.Rat, gs GameSolution) error {
	one := big.NewRat(1, 1)
	sum := new(big.Rat)
	for _, p := range gs.Row {
		if p.Sign() < 0 {
			return fmt.Errorf("negative row probability %v", p)
		}
		sum.Add(sum, p)
	}
	if sum.Cmp(one) != 0 {
		return fmt.Errorf("row strategy sums to %v", sum)
	}
	sum.SetInt64(0)
	for _, p := range gs.Col {
		if p.Sign() < 0 {
			return fmt.Errorf("negative col probability %v", p)
		}
		sum.Add(sum, p)
	}
	if sum.Cmp(one) != 0 {
		return fmt.Errorf("col strategy sums to %v", sum)
	}
	// Row guarantee: for every column j, Σ_i row_i·m[i][j] >= value.
	for j := range m[0] {
		payoff := new(big.Rat)
		for i := range m {
			payoff.Add(payoff, new(big.Rat).Mul(gs.Row[i], m[i][j]))
		}
		if payoff.Cmp(gs.Value) < 0 {
			return fmt.Errorf("column %d beats the row guarantee: %v < %v", j, payoff, gs.Value)
		}
	}
	// Column cap: for every row i, Σ_j m[i][j]·col_j <= value.
	for i := range m {
		payoff := new(big.Rat)
		for j := range m[i] {
			payoff.Add(payoff, new(big.Rat).Mul(m[i][j], gs.Col[j]))
		}
		if payoff.Cmp(gs.Value) > 0 {
			return fmt.Errorf("row %d beats the column cap: %v > %v", i, payoff, gs.Value)
		}
	}
	return nil
}

func matrix(rows ...[]int64) [][]*big.Rat {
	m := make([][]*big.Rat, len(rows))
	for i, row := range rows {
		m[i] = make([]*big.Rat, len(row))
		for j, e := range row {
			m[i][j] = big.NewRat(e, 1)
		}
	}
	return m
}

func TestSolveZeroSumMatchingPennies(t *testing.T) {
	m := matrix([]int64{1, -1}, []int64{-1, 1})
	gs, err := SolveZeroSum(m)
	if err != nil {
		t.Fatal(err)
	}
	if gs.Value.Sign() != 0 {
		t.Errorf("value = %v, want 0", gs.Value)
	}
	half := big.NewRat(1, 2)
	for i := range gs.Row {
		if gs.Row[i].Cmp(half) != 0 || gs.Col[i].Cmp(half) != 0 {
			t.Errorf("strategies not uniform: row=%v col=%v", gs.Row, gs.Col)
		}
	}
	checkGameSolution(t, m, gs)
}

func TestSolveZeroSumRockPaperScissors(t *testing.T) {
	m := matrix(
		[]int64{0, -1, 1},
		[]int64{1, 0, -1},
		[]int64{-1, 1, 0},
	)
	gs, err := SolveZeroSum(m)
	if err != nil {
		t.Fatal(err)
	}
	if gs.Value.Sign() != 0 {
		t.Errorf("value = %v, want 0", gs.Value)
	}
	third := big.NewRat(1, 3)
	for i := 0; i < 3; i++ {
		if gs.Row[i].Cmp(third) != 0 || gs.Col[i].Cmp(third) != 0 {
			t.Errorf("strategies not uniform thirds: row=%v col=%v", gs.Row, gs.Col)
		}
	}
	checkGameSolution(t, m, gs)
}

func TestSolveZeroSumSaddlePoint(t *testing.T) {
	// A dominant pure saddle: value 2 at (row 0, col 1).
	m := matrix(
		[]int64{3, 2},
		[]int64{1, 0},
	)
	gs, err := SolveZeroSum(m)
	if err != nil {
		t.Fatal(err)
	}
	if gs.Value.Cmp(big.NewRat(2, 1)) != 0 {
		t.Errorf("value = %v, want 2", gs.Value)
	}
	checkGameSolution(t, m, gs)
}

func TestSolveZeroSumAsymmetric(t *testing.T) {
	// Classic 2x2 without saddle: value = (ad - bc)/(a+d-b-c).
	// [[4, 1], [2, 3]]: value = (12-2)/(7-3) = 10/4 = 5/2.
	m := matrix([]int64{4, 1}, []int64{2, 3})
	gs, err := SolveZeroSum(m)
	if err != nil {
		t.Fatal(err)
	}
	if gs.Value.Cmp(big.NewRat(5, 2)) != 0 {
		t.Errorf("value = %v, want 5/2", gs.Value)
	}
	checkGameSolution(t, m, gs)
}

func TestSolveZeroSumNonSquare(t *testing.T) {
	// Row player has an extra dominated row; 3x2.
	m := matrix(
		[]int64{4, 1},
		[]int64{2, 3},
		[]int64{0, 0},
	)
	gs, err := SolveZeroSum(m)
	if err != nil {
		t.Fatal(err)
	}
	if gs.Value.Cmp(big.NewRat(5, 2)) != 0 {
		t.Errorf("value = %v, want 5/2", gs.Value)
	}
	if gs.Row[2].Sign() != 0 {
		t.Errorf("dominated row gets probability %v", gs.Row[2])
	}
	checkGameSolution(t, m, gs)
}

func TestSolveZeroSumNegativeMatrix(t *testing.T) {
	// All-negative payoffs exercise the shift.
	m := matrix([]int64{-5, -3}, []int64{-2, -7})
	gs, err := SolveZeroSum(m)
	if err != nil {
		t.Fatal(err)
	}
	checkGameSolution(t, m, gs)
	if gs.Value.Sign() >= 0 {
		t.Errorf("value = %v, want negative", gs.Value)
	}
}

func TestSolveZeroSumValidation(t *testing.T) {
	if _, err := SolveZeroSum(nil); err == nil {
		t.Error("empty matrix must fail")
	}
	if _, err := SolveZeroSum([][]*big.Rat{{}}); err == nil {
		t.Error("empty row must fail")
	}
	if _, err := SolveZeroSum([][]*big.Rat{{big.NewRat(1, 1)}, {}}); err == nil {
		t.Error("ragged matrix must fail")
	}
	if _, err := SolveZeroSum([][]*big.Rat{{nil}}); err == nil {
		t.Error("nil entry must fail")
	}
}

// Property: on random integer matrices the solver always produces exact
// minimax certificates.
func TestPropertyZeroSumCertificates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(5)
		cols := 1 + rng.Intn(5)
		m := make([][]*big.Rat, rows)
		for i := range m {
			m[i] = make([]*big.Rat, cols)
			for j := range m[i] {
				m[i][j] = big.NewRat(int64(rng.Intn(11)-5), int64(1+rng.Intn(3)))
			}
		}
		gs, err := SolveZeroSum(m)
		if err != nil {
			return false
		}
		// Inline certificate check (mirrors checkGameSolution).
		one := big.NewRat(1, 1)
		sum := new(big.Rat)
		for _, p := range gs.Row {
			if p.Sign() < 0 {
				return false
			}
			sum.Add(sum, p)
		}
		if sum.Cmp(one) != 0 {
			return false
		}
		sum.SetInt64(0)
		for _, p := range gs.Col {
			if p.Sign() < 0 {
				return false
			}
			sum.Add(sum, p)
		}
		if sum.Cmp(one) != 0 {
			return false
		}
		for j := 0; j < cols; j++ {
			payoff := new(big.Rat)
			for i := 0; i < rows; i++ {
				payoff.Add(payoff, new(big.Rat).Mul(gs.Row[i], m[i][j]))
			}
			if payoff.Cmp(gs.Value) < 0 {
				return false
			}
		}
		for i := 0; i < rows; i++ {
			payoff := new(big.Rat)
			for j := 0; j < cols; j++ {
				payoff.Add(payoff, new(big.Rat).Mul(m[i][j], gs.Col[j]))
			}
			if payoff.Cmp(gs.Value) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
