package sim

import "math/bits"

// Modulus computes x % d for a divisor d fixed in advance, with
// multiplications instead of a division instruction (Lemire, Kaser and
// Kurz, "Faster remainder by direct computation", 2019). It holds the
// 128-bit constant c = ceil(2^128 / d). The low 128 bits of c*x are the
// fractional part of x/d scaled by 2^128, and multiplying that fraction
// by d and keeping the top bits yields the remainder. The result is
// exact for every 64-bit x and every divisor 1 ≤ d < 2^64, because the
// constant has 128 ≥ 64 + log2(d) bits.
type Modulus struct {
	chi, clo uint64 // c = ceil(2^128 / d), modulo 2^128
	d        uint64
}

// NewModulus precomputes the remainder constant for d. d must be
// positive.
func NewModulus(d uint64) Modulus {
	if d == 0 {
		panic("sim: NewModulus with zero divisor")
	}
	// floor((2^128-1)/d) by long division over the two all-ones words,
	// plus one. That is ceil(2^128/d) for every d; for d == 1 it is
	// 2^128, which wraps to 0 and makes Mod return 0, as it must.
	hi, r := bits.Div64(0, ^uint64(0), d)
	lo, _ := bits.Div64(r, ^uint64(0), d)
	lo, carry := bits.Add64(lo, 1, 0)
	return Modulus{chi: hi + carry, clo: lo, d: d}
}

// Mod returns x % d.
func (m Modulus) Mod(x uint64) uint64 {
	// f = c*x mod 2^128.
	fhi, flo := bits.Mul64(m.clo, x)
	fhi += m.chi * x
	// (f*d) >> 128: the low word's product only contributes its carry.
	carryIn, _ := bits.Mul64(flo, m.d)
	hi, lo := bits.Mul64(fhi, m.d)
	_, carry := bits.Add64(lo, carryIn, 0)
	return hi + carry
}
