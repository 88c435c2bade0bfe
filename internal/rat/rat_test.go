package rat

import (
	"math"
	"math/big"
	"testing"
)

// bigOf is the test oracle's view of a Rat.
func bigOf(x *Rat) *big.Rat { return x.Big() }

// checkNormal asserts the small-form invariant: den >= 1 and
// gcd(|num|, den) == 1 (the zero value {0,0} is the one tolerated alias
// of 0/1).
func checkNormal(t *testing.T, x *Rat, ctx string) {
	t.Helper()
	if x.isBig() {
		return
	}
	n, d := x.parts()
	if d < 1 {
		t.Fatalf("%s: denominator %d < 1", ctx, d)
	}
	if g := gcd64(n, d); g != 1 {
		t.Fatalf("%s: %d/%d not reduced (gcd %d)", ctx, n, d, g)
	}
}

func TestZeroValueIsZero(t *testing.T) {
	var z Rat
	if z.Sign() != 0 {
		t.Fatalf("zero value sign = %d", z.Sign())
	}
	if got := z.String(); got != "0" {
		t.Fatalf("zero value String = %q", got)
	}
	var w Rat
	w.Add(&z, &z)
	if w.Sign() != 0 || w.isBig() {
		t.Fatalf("0+0 = %v (small=%v)", w.String(), !w.isBig())
	}
	one := new(Rat).SetInt64(1)
	if z.Cmp(one) != -1 || one.Cmp(&z) != 1 {
		t.Fatal("zero value does not compare as 0")
	}
}

func TestSetFrac64Normalizes(t *testing.T) {
	cases := []struct {
		a, b int64
		want string
	}{
		{6, 4, "3/2"},
		{-6, 4, "-3/2"},
		{6, -4, "-3/2"},
		{-6, -4, "3/2"},
		{0, -7, "0"},
		{math.MinInt64, math.MinInt64, "1"},
		{0, math.MinInt64, "0"},
		{math.MinInt64, 2, "-4611686018427387904"},
	}
	for _, c := range cases {
		var z Rat
		z.SetFrac64(c.a, c.b)
		checkNormal(t, &z, "SetFrac64")
		if got := z.String(); got != c.want {
			t.Errorf("SetFrac64(%d, %d) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}

// TestSetFrac64PromotesUnrepresentable: 1/MinInt64 reduces to a
// denominator of 2^63, one past int64 — the only SetFrac64 promotion.
func TestSetFrac64PromotesUnrepresentable(t *testing.T) {
	var z Rat
	z.SetFrac64(1, math.MinInt64)
	if !z.isBig() {
		t.Fatal("1/MinInt64 should promote (denominator 2^63)")
	}
	want := new(big.Rat).SetFrac(big.NewInt(1), big.NewInt(math.MinInt64))
	if bigOf(&z).Cmp(want) != 0 {
		t.Fatalf("1/MinInt64 = %v, want %v", z.String(), want.RatString())
	}
	// And the promoted value still participates in exact arithmetic.
	var w Rat
	w.Mul(&z, new(Rat).SetInt64(math.MinInt64))
	if w.Sign() <= 0 || w.Cmp(new(Rat).SetInt64(1)) != 0 {
		t.Fatalf("(1/MinInt64)·MinInt64 = %v, want 1", w.String())
	}
	if w.isBig() {
		t.Error("product fits int64 but did not demote")
	}
}

func TestDivisionByZeroPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"SetFrac64": func() { new(Rat).SetFrac64(1, 0) },
		"Quo":       func() { new(Rat).Quo(new(Rat).SetInt64(1), new(Rat)) },
		"Inv":       func() { new(Rat).Inv(new(Rat)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s by zero did not panic", name)
				}
			}()
			f()
		}()
	}
}

// promotionCase drives one op over values straddling the int64 boundary
// and checks the result against big.Rat, including demotion behavior.
type promotionCase struct {
	name           string
	x, y           *big.Rat
	op             func(z, x, y *Rat) *Rat
	oracle         func(z, x, y *big.Rat) *big.Rat
	wantSmallAfter bool
}

func runPromotionCase(t *testing.T, c promotionCase) {
	t.Helper()
	var x, y, z Rat
	x.SetBig(c.x)
	y.SetBig(c.y)
	c.op(&z, &x, &y)
	checkNormal(t, &z, c.name)
	want := c.oracle(new(big.Rat), c.x, c.y)
	if bigOf(&z).Cmp(want) != 0 {
		t.Fatalf("%s: got %v, want %v", c.name, z.String(), want.RatString())
	}
	if !z.isBig() != c.wantSmallAfter {
		t.Errorf("%s: IsSmall = %v, want %v", c.name, !z.isBig(), c.wantSmallAfter)
	}
}

// TestPromotionBoundaries covers int64 overflow on all five ops: max/min
// numerators on Add/Sub, denominator overflow on Add, numerator overflow
// on Mul, denominator overflow on Quo, and Cmp across the boundary.
func TestPromotionBoundaries(t *testing.T) {
	maxI := big.NewRat(math.MaxInt64, 1)
	minI := big.NewRat(math.MinInt64, 1)
	cases := []promotionCase{
		{
			name: "Add/max-numerator-overflow",
			x:    maxI, y: big.NewRat(1, 1),
			op:     func(z, x, y *Rat) *Rat { return z.Add(x, y) },
			oracle: func(z, x, y *big.Rat) *big.Rat { return z.Add(x, y) },
		},
		{
			name: "Add/min-numerator-overflow",
			x:    minI, y: big.NewRat(-1, 1),
			op:     func(z, x, y *Rat) *Rat { return z.Add(x, y) },
			oracle: func(z, x, y *big.Rat) *big.Rat { return z.Add(x, y) },
		},
		{
			name: "Add/denominator-overflow",
			// Coprime denominators near 2^32 whose product exceeds int64.
			x: big.NewRat(1, (1<<32)-1), y: big.NewRat(1, (1<<32)+1),
			op:     func(z, x, y *Rat) *Rat { return z.Add(x, y) },
			oracle: func(z, x, y *big.Rat) *big.Rat { return z.Add(x, y) },
		},
		{
			name: "Add/cancellation-demotes",
			x:    maxI, y: maxI,
			// (MaxInt64 + MaxInt64) - MaxInt64 via two adds would promote;
			// here MaxInt64 + (-MaxInt64) stays small at 0.
			op:             func(z, x, y *Rat) *Rat { var ny Rat; ny.Neg(y); return z.Add(x, &ny) },
			oracle:         func(z, x, y *big.Rat) *big.Rat { return z.Sub(x, y) },
			wantSmallAfter: true,
		},
		{
			name: "Sub/min-minus-one",
			x:    minI, y: big.NewRat(1, 1),
			op:     func(z, x, y *Rat) *Rat { return z.Sub(x, y) },
			oracle: func(z, x, y *big.Rat) *big.Rat { return z.Sub(x, y) },
		},
		{
			name: "Sub/negating-min-int64",
			x:    new(big.Rat), y: minI,
			op:     func(z, x, y *Rat) *Rat { return z.Sub(x, y) },
			oracle: func(z, x, y *big.Rat) *big.Rat { return z.Sub(x, y) },
		},
		{
			name: "Mul/numerator-overflow",
			x:    maxI, y: big.NewRat(2, 1),
			op:     func(z, x, y *Rat) *Rat { return z.Mul(x, y) },
			oracle: func(z, x, y *big.Rat) *big.Rat { return z.Mul(x, y) },
		},
		{
			name: "Mul/cross-reduction-stays-small",
			x:    big.NewRat(math.MaxInt64, 3), y: big.NewRat(3, math.MaxInt64),
			op:             func(z, x, y *Rat) *Rat { return z.Mul(x, y) },
			oracle:         func(z, x, y *big.Rat) *big.Rat { return z.Mul(x, y) },
			wantSmallAfter: true,
		},
		{
			name: "Quo/denominator-overflow",
			x:    big.NewRat(1, math.MaxInt64), y: big.NewRat(3, 1),
			op:     func(z, x, y *Rat) *Rat { return z.Quo(x, y) },
			oracle: func(z, x, y *big.Rat) *big.Rat { return z.Quo(x, y) },
		},
		{
			name: "Quo/min-int64-divisor",
			x:    big.NewRat(1, 3), y: minI,
			op:     func(z, x, y *Rat) *Rat { return z.Quo(x, y) },
			oracle: func(z, x, y *big.Rat) *big.Rat { return z.Quo(x, y) },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { runPromotionCase(t, c) })
	}
}

// TestCmpAcrossBoundary checks the 128-bit comparison where the cross
// products overflow int64, and small-vs-promoted comparisons.
func TestCmpAcrossBoundary(t *testing.T) {
	var a, b Rat
	a.SetFrac64(math.MaxInt64, math.MaxInt64-1) // slightly above 1
	b.SetFrac64(math.MaxInt64-1, math.MaxInt64-2)
	// a = M/(M-1) < (M-1)/(M-2) = b because (M-1)^2 > M(M-2).
	if got := a.Cmp(&b); got != -1 {
		t.Errorf("Cmp high-magnitude = %d, want -1", got)
	}
	if got := b.Cmp(&a); got != 1 {
		t.Errorf("reverse Cmp = %d, want 1", got)
	}
	if got := a.Cmp(&a); got != 0 {
		t.Errorf("self Cmp = %d, want 0", got)
	}
	var big1, small1 Rat
	big1.Add(new(Rat).SetInt64(math.MaxInt64), new(Rat).SetInt64(1)) // promoted 2^63
	small1.SetInt64(math.MaxInt64)
	if !big1.isBig() {
		t.Fatal("MaxInt64+1 should be promoted")
	}
	if big1.Cmp(&small1) != 1 || small1.Cmp(&big1) != -1 {
		t.Error("promoted vs small comparison wrong")
	}
	// Negative side.
	var negA, negB Rat
	negA.SetFrac64(-math.MaxInt64, math.MaxInt64-1)
	negB.SetFrac64(-(math.MaxInt64 - 1), math.MaxInt64-2)
	if got := negA.Cmp(&negB); got != 1 {
		t.Errorf("negated Cmp = %d, want 1", got)
	}
}

func TestAliasedOperands(t *testing.T) {
	var x Rat
	x.SetFrac64(3, 7)
	x.Add(&x, &x) // 6/7
	if got := x.String(); got != "6/7" {
		t.Fatalf("x.Add(x,x) = %s, want 6/7", got)
	}
	x.Mul(&x, &x) // 36/49
	if got := x.String(); got != "36/49" {
		t.Fatalf("x.Mul(x,x) = %s, want 36/49", got)
	}
	x.Sub(&x, &x)
	if x.Sign() != 0 {
		t.Fatalf("x.Sub(x,x) = %s, want 0", x.String())
	}
}

func TestSetBigDemotes(t *testing.T) {
	huge := new(big.Rat).SetFrac(
		new(big.Int).Lsh(big.NewInt(1), 80), big.NewInt(3))
	var z Rat
	z.SetBig(huge)
	if !z.isBig() {
		t.Fatal("2^80/3 should be promoted")
	}
	if bigOf(&z).Cmp(huge) != 0 {
		t.Fatal("promoted value mismatch")
	}
	// SetBig copies: mutating the source must not leak in.
	saved := new(big.Rat).Set(huge)
	huge.Add(huge, big.NewRat(1, 1))
	if bigOf(&z).Cmp(saved) != 0 {
		t.Fatal("SetBig aliased its argument")
	}
	z.SetBig(big.NewRat(22, 7))
	if z.isBig() {
		t.Fatal("22/7 should demote to small form")
	}
	if n, d, ok := z.Frac64(); !ok || n != 22 || d != 7 {
		t.Fatalf("Frac64 = %d/%d ok=%v", n, d, ok)
	}
}

func TestNegInvBoundaries(t *testing.T) {
	var z Rat
	z.Neg(new(Rat).SetInt64(math.MinInt64))
	if !z.isBig() {
		t.Fatal("-MinInt64 must promote")
	}
	want := new(big.Rat).Neg(big.NewRat(math.MinInt64, 1))
	if bigOf(&z).Cmp(want) != 0 {
		t.Fatalf("Neg(MinInt64) = %v", z.String())
	}
	var w Rat
	w.Inv(new(Rat).SetInt64(math.MinInt64))
	if !w.isBig() {
		t.Fatal("1/MinInt64 must promote")
	}
	w.Inv(new(Rat).SetFrac64(-3, 5))
	if w.isBig() {
		t.Fatal("Inv(-3/5) should stay small")
	}
	if got := w.String(); got != "-5/3" {
		t.Fatalf("Inv(-3/5) = %s", got)
	}
}

func TestVecRoundTrip(t *testing.T) {
	src := []*big.Rat{
		big.NewRat(1, 3),
		nil, // counts as zero
		new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 70), big.NewInt(7)),
		big.NewRat(-5, 2),
	}
	v := FromBig(src)
	if v[0].isBig() || v[1].isBig() || !v[2].isBig() || v[3].isBig() {
		t.Fatal("FromBig small/promoted split wrong")
	}
	out := v.ToBig()
	if out[1].Sign() != 0 {
		t.Error("nil entry should convert to 0")
	}
	if out[2].Cmp(src[2]) != 0 || out[0].Cmp(src[0]) != 0 || out[3].Cmp(src[3]) != 0 {
		t.Error("round trip lost values")
	}
	// ToBig must return independent values.
	out[0].SetInt64(99)
	if v[0].Big().Cmp(big.NewRat(1, 3)) != 0 {
		t.Error("ToBig aliased vector state")
	}

	var sum Rat
	v.Sum(&sum)
	want := new(big.Rat).Add(src[0], src[2])
	want.Add(want, src[3])
	if sum.Big().Cmp(want) != 0 {
		t.Errorf("Sum = %v, want %v", sum.String(), want.RatString())
	}
	v.Zero()
	for i := range v {
		if v[i].Sign() != 0 {
			t.Fatalf("Zero left entry %d = %v", i, v[i].String())
		}
	}
}

// TestAccumulationMatchesBigRat replays a long mixed-op accumulation and
// checks the running value against big.Rat at every step — the shape of
// the simplex and load-accumulation loops.
func TestAccumulationMatchesBigRat(t *testing.T) {
	var acc Rat
	acc.SetInt64(0)
	oracle := new(big.Rat)
	term := new(Rat)
	for i := int64(1); i <= 200; i++ {
		term.SetFrac64(i*i-3, i+1)
		switch i % 4 {
		case 0:
			acc.Add(&acc, term)
			oracle.Add(oracle, term.Big())
		case 1:
			acc.Sub(&acc, term)
			oracle.Sub(oracle, term.Big())
		case 2:
			acc.Mul(&acc, term)
			oracle.Mul(oracle, term.Big())
		case 3:
			acc.Quo(&acc, term)
			oracle.Quo(oracle, term.Big())
		}
		checkNormal(t, &acc, "accumulation")
		if bigOf(&acc).Cmp(oracle) != 0 {
			t.Fatalf("step %d: acc %v != oracle %v", i, acc.String(), oracle.RatString())
		}
	}
}
