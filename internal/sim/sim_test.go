package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("new clock at %d, want 0", c.Now())
	}
	c.Advance(5 * Millisecond)
	if got := c.Now(); got != Time(5*Millisecond) {
		t.Fatalf("Now() = %d, want %d", got, 5*Millisecond)
	}
	c.Advance(0)
	if got := c.Now(); got != Time(5*Millisecond) {
		t.Fatalf("zero advance moved clock to %d", got)
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance did not panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func TestTimeArithmetic(t *testing.T) {
	var c Clock
	c.Restore(100)
	if got := c.Advance(50); got != 150 {
		t.Fatalf("Restore(100) then Advance(50) = %d, want 150", got)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{2500, "2.500µs"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestDurationSeconds(t *testing.T) {
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Seconds = %v, want 1.5", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

// TestRNGFillMatchesUint64 checks that Fill writes the values that as
// many Uint64 calls return and leaves the same state, from a fresh seed
// and from mid-stream, for lengths around a 512-word chunk.
func TestRNGFillMatchesUint64(t *testing.T) {
	for _, skip := range []int{0, 1000} {
		for _, n := range []int{0, 1, 2, 511, 512, 513} {
			got, want := NewRNG(9), NewRNG(9)
			for i := 0; i < skip; i++ {
				got.Uint64()
				want.Uint64()
			}
			dst := make([]uint64, n)
			got.Fill(dst)
			for i, v := range dst {
				if w := want.Uint64(); v != w {
					t.Fatalf("skip %d, n %d: value %d = %#x, Uint64 %#x", skip, n, i, v, w)
				}
			}
			if got.State() != want.State() {
				t.Fatalf("skip %d, n %d: state %x after Fill, %x after Uint64", skip, n, got.State(), want.State())
			}
		}
	}
}

// TestBoolCutMatchesBool checks that u>>11 < BoolCut(p) decides the
// value u as Bool(p) does: on the stream itself, and on values whose
// top 53 bits sit at the cut and next to it.
func TestBoolCutMatchesBool(t *testing.T) {
	for _, p := range []float64{
		0, 1, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 1.0 / 3,
		math.Nextafter(1, 0), math.Nextafter(0.5, 1), 1e-300, 5e-324, -0.5,
	} {
		cut := BoolCut(p)
		r, clone := NewRNG(21), NewRNG(21)
		for i := 0; i < 10_000; i++ {
			u := clone.Uint64()
			if got, want := u>>11 < cut, r.Bool(p); got != want {
				t.Fatalf("p %v: value %#x cut %v, Bool %v", p, u, got, want)
			}
		}
		for _, k := range []uint64{cut - 1, cut, cut + 1, 0, 1<<53 - 1} {
			if k >= 1<<53 {
				continue
			}
			u := k<<11 | 0x5a5
			if got, want := u>>11 < cut, float64(u>>11)/(1<<53) < p; got != want {
				t.Fatalf("p %v: k %d cut %v, Float64 < p %v", p, k, got, want)
			}
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical values", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d", v)
		}
	}
}

func TestRNGIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFork(t *testing.T) {
	parent := NewRNG(9)
	child := parent.Fork()
	// The child stream must not mirror the parent stream.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("fork mirrors parent: %d/100 identical", same)
	}
}

func TestRNGUniformityProperty(t *testing.T) {
	// Property: for any seed and bucket count, Intn fills all buckets
	// given enough draws.
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		const buckets = 8
		var counts [buckets]int
		for i := 0; i < 4000; i++ {
			counts[r.Intn(buckets)]++
		}
		for _, c := range counts {
			if c == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(13)
	z := NewZipf(r, 1.0, 1000)
	counts := make([]int, 1000)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Sample()]++
	}
	// Rank 0 must dominate rank 99 by roughly the theoretical factor 100.
	if counts[0] < counts[99]*20 {
		t.Fatalf("zipf not skewed: rank0=%d rank99=%d", counts[0], counts[99])
	}
}

func TestZipfSupport(t *testing.T) {
	r := NewRNG(17)
	z := NewZipf(r, 0.8, 50)
	for i := 0; i < 10000; i++ {
		v := z.Sample()
		if v < 0 || v >= 50 {
			t.Fatalf("sample %d outside support", v)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	r := NewRNG(1)
	for _, f := range []func(){
		func() { NewZipf(r, 1.0, 0) },
		func() { NewZipf(r, 0, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSequentialWindowSweeps(t *testing.T) {
	s := NewSequentialWindow(5)
	want := []int{0, 1, 2, 3, 4, 0, 1}
	for i, w := range want {
		if got := s.Sample(); got != w {
			t.Fatalf("step %d: got %d, want %d", i, got, w)
		}
	}
	if s.Pos() != 2 {
		t.Fatalf("Pos = %d, want 2", s.Pos())
	}
}
