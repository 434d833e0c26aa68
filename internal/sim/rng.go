package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator
// (xoshiro256** seeded via splitmix64). The simulator cannot use
// math/rand's global source because experiments must be exactly
// reproducible across runs and across parallel benchmark invocations;
// every component that needs randomness owns an RNG derived from the
// experiment seed.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed re-initialises the generator state from seed using splitmix64,
// which guarantees a well-mixed non-zero state for any input.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
}

// Fork derives an independent generator from this one. Use it to hand a
// private stream to a sub-component without coupling its consumption
// pattern to the parent's.
func (r *RNG) Fork() *RNG { return NewRNG(r.Uint64()) }

// State exports the generator's raw xoshiro256** state words so a
// stream can be checkpointed mid-run and later resumed exactly where
// it left off (see internal/snapshot).
func (r *RNG) State() [4]uint64 { return r.s }

// Restore overwrites the generator state with a previously exported
// State. The next Uint64 continues the original stream bit-for-bit.
func (r *RNG) Restore(s [4]uint64) { r.s = s }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Fill writes the next len(dst) values of the stream into dst, exactly
// as len(dst) calls to Uint64 would return them, with the state held in
// locals for the whole run instead of reloaded per value.
func (r *RNG) Fill(dst []uint64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		dst[i] = rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// BoolCut returns the integer form of Bool(p) for a caller holding
// values drawn with Fill: Bool(p) draws a value u and returns true
// exactly when u>>11 < BoolCut(p). p must be at most 1 and not NaN.
//
// Bool compares Float64's k/2^53, k = u>>11, with p. The conversion of
// k < 2^53 and the division by a power of two are exact, and so is
// p*2^53 for p in [0, 1], so k/2^53 < p holds exactly when k < p*2^53,
// that is, for an integer k, when k < ceil(p*2^53). A negative p cuts
// at 0: Bool(p) is then never true.
func BoolCut(p float64) uint64 {
	return uint64(math.Ceil(math.Max(p, 0) * (1 << 53)))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }
