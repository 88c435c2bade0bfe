package rat

import "math/big"

// Vec is a dense vector of Rat values. Because Rat is a value type, a Vec
// is one contiguous allocation and element arithmetic on the small path
// touches no heap memory at all — the scratch-buffer shape the solver hot
// loops (simplex rows, vertex-load accumulators, branch-and-bound
// potentials) are written against.
type Vec []Rat

// NewVec returns a zeroed vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// FromBig converts a slice of big.Rat values (nil entries count as zero)
// into a Vec, demoting every value that fits int64.
func FromBig(rs []*big.Rat) Vec {
	v := make(Vec, len(rs))
	for i, r := range rs {
		if r != nil {
			v[i].SetBig(r)
		}
	}
	return v
}

// ToBig converts v into freshly allocated big.Rat values — the bridge
// back to the library's public *big.Rat surfaces.
func (v Vec) ToBig() []*big.Rat {
	out := make([]*big.Rat, len(v))
	for i := range v {
		out[i] = v[i].Big()
	}
	return out
}

// Zero resets every entry of v to 0, keeping the storage.
func (v Vec) Zero() {
	for i := range v {
		v[i] = Rat{}
	}
}

// Sum sets z to the sum of v's entries and returns z.
func (v Vec) Sum(z *Rat) *Rat {
	z.SetInt64(0)
	for i := range v {
		z.Add(z, &v[i])
	}
	return z
}
