// Package rat implements an exact small-rational value type for the
// solver hot loops: a numerator/denominator pair of int64 that performs
// Add/Sub/Mul/Quo/Cmp with overflow-checked machine arithmetic and
// promotes *losslessly* to math/big.Rat the moment a result stops
// fitting. Nearly every intermediate value in Π_k(G) instances is a tiny
// fraction (1/|M|, ν/(2k), sums of a handful of such terms), so the fast
// path runs allocation-free at machine-word speed while the big.Rat slow
// path keeps the exactness guarantee of DESIGN.md §"Exactness" — no
// floating point, no tolerances, ever.
//
// The zero value of Rat is 0, ready to use, mirroring big.Rat. Values are
// always stored normalized: denominator positive, gcd(|num|, den) == 1.
// A promoted value demotes back to the small form whenever a later result
// fits int64 again, so a single overflowing intermediate does not condemn
// the rest of a computation to heap arithmetic.
//
// Correctness is enforced differentially: FuzzRatVsBigRat drives every
// operation against big.Rat as the oracle, and the promotion-boundary
// unit tests pin the exact int64 edges (see rat_test.go).
package rat

import (
	"math"
	"math/big"
	"math/bits"
)

// Rat is an exact rational number. It is either *small* — an int64
// numerator/denominator pair with den >= 1 and gcd(|num|, den) == 1 — or
// *promoted*, in which case the value lives in p and num/den are unused.
// The zero value is 0. Rat values must not be copied while an operation
// is writing to them, but plain value copies (assignment, slices of Rat)
// are fine and are how Vec avoids per-cell allocation.
type Rat struct {
	num, den int64
	// p holds the promoted value. It is treated as immutable: every
	// operation that lands here installs a freshly allocated big.Rat, so
	// two Rats may share one p safely.
	p *big.Rat
}

// parts returns the small form's numerator and denominator, mapping the
// zero value {0, 0} to the canonical 0/1. Callers must ensure !x.isBig().
func (x *Rat) parts() (int64, int64) {
	if x.den == 0 {
		return 0, 1
	}
	return x.num, x.den
}

func (x *Rat) isBig() bool { return x.p != nil }

// Frac64 returns the normalized numerator and denominator when x is
// small, with ok=false when x has been promoted beyond int64 range.
func (x *Rat) Frac64() (num, den int64, ok bool) {
	if x.isBig() {
		return 0, 0, false
	}
	n, d := x.parts()
	return n, d, true
}

// SetInt64 sets z to n and returns z.
func (z *Rat) SetInt64(n int64) *Rat {
	z.num, z.den, z.p = n, 1, nil
	return z
}

// SetFrac64 sets z to a/b exactly and returns z. It panics when b == 0,
// matching big.Rat's division-by-zero behavior. The result is normalized
// and promotes only in the one unrepresentable corner (odd a with
// b == math.MinInt64, whose reduced denominator 2^63 exceeds int64).
func (z *Rat) SetFrac64(a, b int64) *Rat {
	if b == 0 {
		// lint:invariant(nakedpanic): zero denominator is a caller contract violation;
		// panicking matches big.Rat.SetFrac64.
		panic("rat: division by zero")
	}
	return z.setReduced(a, b)
}

// setReduced normalizes a/b (b != 0) into z, promoting when the reduced
// pair cannot be represented with den >= 1 in int64.
func (z *Rat) setReduced(a, b int64) *Rat {
	g := int64(gcd64(a, b))
	// g divides both exactly; the only hazard left is sign restoration.
	a /= g
	b /= g
	if b < 0 {
		// Negate both. Either negation can overflow only at MinInt64.
		if a == math.MinInt64 || b == math.MinInt64 {
			br := new(big.Rat).SetFrac(big.NewInt(a), big.NewInt(b))
			return z.adopt(br)
		}
		a, b = -a, -b
	}
	z.num, z.den, z.p = a, b, nil
	return z
}

// adopt installs a freshly allocated big.Rat as z's value, demoting to
// the small form when it fits. br must not be retained by the caller.
func (z *Rat) adopt(br *big.Rat) *Rat {
	if br.Num().IsInt64() && br.Denom().IsInt64() {
		// big.Rat keeps denominators positive and reduced, so the pair is
		// already in our normal form.
		z.num, z.den, z.p = br.Num().Int64(), br.Denom().Int64(), nil
		return z
	}
	z.p = br
	return z
}

// Set sets z to x and returns z.
func (z *Rat) Set(x *Rat) *Rat {
	z.num, z.den, z.p = x.num, x.den, x.p
	return z
}

// SetBig sets z to the value of r (copied, never aliased) and returns z.
func (z *Rat) SetBig(r *big.Rat) *Rat {
	if r.Num().IsInt64() && r.Denom().IsInt64() {
		z.num, z.den, z.p = r.Num().Int64(), r.Denom().Int64(), nil
		return z
	}
	return z.adopt(new(big.Rat).Set(r))
}

// Big returns x as a freshly allocated big.Rat.
func (x *Rat) Big() *big.Rat {
	if x.isBig() {
		return new(big.Rat).Set(x.p)
	}
	n, d := x.parts()
	return new(big.Rat).SetFrac64(n, d)
}

// bigVal returns a read-only big.Rat view of x, allocating only for
// small values (the slow path already gave up on zero-alloc).
func (x *Rat) bigVal() *big.Rat {
	if x.isBig() {
		return x.p
	}
	n, d := x.parts()
	return new(big.Rat).SetFrac64(n, d)
}

// Sign returns -1, 0 or +1 according to the sign of x.
func (x *Rat) Sign() int {
	if x.isBig() {
		return x.p.Sign()
	}
	switch {
	case x.num > 0:
		return 1
	case x.num < 0:
		return -1
	default:
		return 0
	}
}

// Add sets z = x + y and returns z. z may alias x or y.
func (z *Rat) Add(x, y *Rat) *Rat {
	if x.isBig() || y.isBig() {
		return z.adopt(new(big.Rat).Add(x.bigVal(), y.bigVal()))
	}
	a, b := x.parts()
	c, d := y.parts()
	return z.addSmall(a, b, c, d)
}

// Sub sets z = x - y and returns z. z may alias x or y.
func (z *Rat) Sub(x, y *Rat) *Rat {
	if x.isBig() || y.isBig() {
		return z.adopt(new(big.Rat).Sub(x.bigVal(), y.bigVal()))
	}
	a, b := x.parts()
	c, d := y.parts()
	if c == math.MinInt64 {
		// -c is unrepresentable; route through big once.
		return z.adopt(new(big.Rat).Sub(x.bigVal(), y.bigVal()))
	}
	return z.addSmall(a, b, -c, d)
}

// addSmall computes a/b + c/d with Knuth's gcd trick (TAOCP 4.5.1):
// with t = a·(d/g) + c·(b/g) and g = gcd(b, d), the result is
// (t/h) / ((b/g)·(d/h)) where h = gcd(t, g) — every division is exact
// and the intermediates are as small as the mathematics allows. Any
// checked overflow falls back to one big.Rat round trip, which demotes
// again if the *reduced* result fits.
func (z *Rat) addSmall(a, b, c, d int64) *Rat {
	g := int64(gcd64(b, d)) // b, d >= 1 so g >= 1
	db := d / g
	bb := b / g
	t1, ok1 := mul64(a, db)
	t2, ok2 := mul64(c, bb)
	if ok1 && ok2 {
		if t, ok := add64(t1, t2); ok {
			h := int64(gcd64(t, g))
			if den, ok := mul64(bb, d/h); ok {
				z.num, z.den, z.p = t/h, den, nil
				return z
			}
		}
	}
	x := new(big.Rat).SetFrac64(a, b)
	y := new(big.Rat).SetFrac64(c, d)
	return z.adopt(x.Add(x, y))
}

// Mul sets z = x * y and returns z. z may alias x or y.
func (z *Rat) Mul(x, y *Rat) *Rat {
	if x.isBig() || y.isBig() {
		return z.adopt(new(big.Rat).Mul(x.bigVal(), y.bigVal()))
	}
	a, b := x.parts()
	c, d := y.parts()
	return z.mulSmall(a, b, c, d)
}

// mulSmall computes (a/b)·(c/d) with cross-reduction: dividing a by
// gcd(a, d) and c by gcd(c, b) first makes the final products the reduced
// answer directly and keeps them in range whenever the result fits.
func (z *Rat) mulSmall(a, b, c, d int64) *Rat {
	g1 := int64(gcd64(a, d))
	g2 := int64(gcd64(c, b))
	a, d = a/g1, d/g1
	c, b = c/g2, b/g2
	num, ok1 := mul64(a, c)
	den, ok2 := mul64(b, d)
	if ok1 && ok2 {
		// b, d >= 1 after exact division, so den >= 1: already normal.
		z.num, z.den, z.p = num, den, nil
		return z
	}
	x := new(big.Rat).SetFrac64(a, b)
	y := new(big.Rat).SetFrac64(c, d)
	return z.adopt(x.Mul(x, y))
}

// Quo sets z = x / y and returns z. It panics when y is zero, matching
// big.Rat. z may alias x or y.
func (z *Rat) Quo(x, y *Rat) *Rat {
	if y.Sign() == 0 {
		// lint:invariant(nakedpanic): division by zero is a caller contract violation;
		// panicking matches big.Rat.Quo.
		panic("rat: division by zero")
	}
	if x.isBig() || y.isBig() {
		return z.adopt(new(big.Rat).Quo(x.bigVal(), y.bigVal()))
	}
	a, b := x.parts()
	c, d := y.parts()
	// a/b ÷ c/d = (a·d)/(b·c): reuse cross-reduced multiplication with
	// the flipped divisor, restoring the sign to the numerator first.
	if c < 0 {
		if c == math.MinInt64 {
			return z.adopt(new(big.Rat).Quo(x.bigVal(), y.bigVal()))
		}
		c, d = -c, -d
	}
	return z.mulSmall(a, b, d, c)
}

// Neg sets z = -x and returns z.
func (z *Rat) Neg(x *Rat) *Rat {
	if x.isBig() {
		return z.adopt(new(big.Rat).Neg(x.p))
	}
	n, d := x.parts()
	if n == math.MinInt64 {
		return z.adopt(new(big.Rat).Neg(x.bigVal()))
	}
	z.num, z.den, z.p = -n, d, nil
	return z
}

// Inv sets z = 1/x and returns z. It panics when x is zero.
func (z *Rat) Inv(x *Rat) *Rat {
	if x.Sign() == 0 {
		// lint:invariant(nakedpanic): inverting zero is a caller contract violation;
		// panicking matches big.Rat.Inv.
		panic("rat: division by zero")
	}
	if x.isBig() {
		return z.adopt(new(big.Rat).Inv(x.p))
	}
	n, d := x.parts()
	if n < 0 {
		if n == math.MinInt64 {
			return z.adopt(new(big.Rat).Inv(x.bigVal()))
		}
		n, d = -n, -d
	}
	z.num, z.den, z.p = d, n, nil
	return z
}

// Cmp compares x and y and returns -1, 0 or +1. The small/small case is
// an allocation-free 128-bit cross multiplication, so comparison-heavy
// loops (ratio tests, branch-and-bound bounds) never touch the heap.
func (x *Rat) Cmp(y *Rat) int {
	if x.isBig() || y.isBig() {
		return x.bigVal().Cmp(y.bigVal())
	}
	a, b := x.parts()
	c, d := y.parts()
	// Compare a/b with c/d, b, d > 0: the sign split means the 128-bit
	// magnitude comparison only runs for same-sign operands.
	sa, sc := sign64(a), sign64(c)
	if sa != sc {
		if sa < sc {
			return -1
		}
		return 1
	}
	if sa == 0 {
		return 0
	}
	// |a|·d vs |c|·b in 128 bits, flipped when both are negative.
	h1, l1 := bits.Mul64(abs64(a), uint64(d))
	h2, l2 := bits.Mul64(abs64(c), uint64(b))
	var m int
	switch {
	case h1 != h2:
		if h1 < h2 {
			m = -1
		} else {
			m = 1
		}
	case l1 != l2:
		if l1 < l2 {
			m = -1
		} else {
			m = 1
		}
	}
	return m * sa
}

// String renders x in big.Rat's a/b notation.
func (x *Rat) String() string {
	if x.isBig() {
		return x.p.RatString()
	}
	n, d := x.parts()
	return new(big.Rat).SetFrac64(n, d).RatString()
}

// add64 returns a+b and whether it fit int64.
func add64(a, b int64) (int64, bool) {
	c := a + b
	if (b > 0 && c < a) || (b < 0 && c > a) {
		return 0, false
	}
	return c, true
}

// mul64 returns a·b and whether it fit int64. The c/b != a quotient test
// catches every overflow except MinInt64·(-1), which wraps back to a
// consistent quotient, so MinInt64 operands are screened explicitly.
func mul64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if a == math.MinInt64 || b == math.MinInt64 {
		if a == 1 {
			return b, true
		}
		if b == 1 {
			return a, true
		}
		return 0, false
	}
	c := a * b
	if c/b != a {
		return 0, false
	}
	return c, true
}

// abs64 returns |a| as a uint64; correct for MinInt64.
func abs64(a int64) uint64 {
	if a < 0 {
		return -uint64(a)
	}
	return uint64(a)
}

func sign64(a int64) int {
	switch {
	case a > 0:
		return 1
	case a < 0:
		return -1
	default:
		return 0
	}
}

// gcd64 returns gcd(|a|, |b|) as a uint64, with gcd(0, 0) = 1 so callers
// can divide unconditionally. The magnitudes make MinInt64 safe.
func gcd64(a, b int64) uint64 {
	x, y := abs64(a), abs64(b)
	for y != 0 {
		x, y = y, x%y
	}
	if x == 0 {
		return 1
	}
	return x
}
