package sim

import (
	"math"
	"testing"
)

// TestModulusMatchesRemainder checks Mod against the % operator on the
// divisors where a wrong constant shows first (1, the 32-bit and 64-bit
// boundaries, the top bit) and on random divisors of every bit length,
// each against the numerators around 0, d and 2d plus random ones.
func TestModulusMatchesRemainder(t *testing.T) {
	r := NewRNG(2019)
	divisors := []uint64{
		1, 2, 3, 7, 10,
		1<<32 - 1, 1 << 32, 1<<32 + 1,
		1 << 63, 1<<63 + 1, math.MaxUint64 - 1, math.MaxUint64,
	}
	for bitLen := 1; bitLen <= 64; bitLen++ {
		top := uint64(1) << (bitLen - 1)
		for i := 0; i < 8; i++ {
			d := top | r.Uint64()&(top-1)
			divisors = append(divisors, d)
		}
	}
	for _, d := range divisors {
		m := NewModulus(d)
		xs := []uint64{0, 1, d - 1, d, d + 1, 2*d - 1, 2 * d, math.MaxUint64, math.MaxUint64 - 1}
		for i := 0; i < 512; i++ {
			xs = append(xs, r.Uint64())
		}
		// Numerators just below each multiple k*d that fits, where a
		// constant one too small reads the remainder as d.
		for k := uint64(1); k <= 64; k++ {
			if hi := math.MaxUint64 / k; d <= hi {
				xs = append(xs, k*d-1, k*d)
			}
		}
		for _, x := range xs {
			if got, want := m.Mod(x), x%d; got != want {
				t.Fatalf("Mod(%d) with d=%d = %d, want %d", x, d, got, want)
			}
		}
	}
}

func TestModulusZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewModulus(0) did not panic")
		}
	}()
	NewModulus(0)
}
