package sim

import "math"

// Zipf samples integers in [0, n) with probability proportional to
// 1/(i+1)^s. Workload models use it for the skewed page-popularity
// distributions typical of key-value stores and web serving.
//
// The implementation precomputes the cumulative distribution and samples
// by binary search, which is exact, allocation-free per sample, and fast
// enough for the access volumes the simulator generates.
type Zipf struct {
	rng *RNG
	cdf []float64
}

// NewZipf builds a Zipf sampler over [0, n) with exponent s > 0.
func NewZipf(rng *RNG, s float64, n int) *Zipf {
	if n <= 0 {
		panic("sim: NewZipf with non-positive n")
	}
	if s <= 0 {
		panic("sim: NewZipf with non-positive exponent")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{rng: rng, cdf: cdf}
}

// RNG exposes the sampler's random stream so checkpoint code can
// serialize and restore it (the CDF itself is a pure function of the
// constructor arguments and carries no run state).
func (z *Zipf) RNG() *RNG { return z.rng }

// Sample draws the next value.
func (z *Zipf) Sample() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SequentialWindow models streaming access: a cursor sweeps over [0, items)
// and each call returns the next position, wrapping at the end. Graph
// engines that stream edges from memory-mapped files (X-Stream, GraphChi
// shards) behave this way.
type SequentialWindow struct {
	items  int
	cursor int
}

// NewSequentialWindow builds a sweeping cursor over [0, items).
func NewSequentialWindow(items int) *SequentialWindow {
	if items <= 0 {
		panic("sim: NewSequentialWindow with non-positive items")
	}
	return &SequentialWindow{items: items}
}

// Sample returns the next position in the sweep.
func (s *SequentialWindow) Sample() int {
	v := s.cursor
	s.cursor++
	if s.cursor >= s.items {
		s.cursor = 0
	}
	return v
}

// Pos reports the current cursor position without advancing it.
func (s *SequentialWindow) Pos() int { return s.cursor }

// Seek moves the cursor to pos (mod items); checkpoint restore uses it
// to resume a sweep exactly where it stopped.
func (s *SequentialWindow) Seek(pos int) {
	if pos < 0 {
		pos = 0
	}
	s.cursor = pos % s.items
}
