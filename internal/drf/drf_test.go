package drf

import (
	"errors"
	"math"
	"testing"
)

func mustNew(t *testing.T, caps, weights []float64) *Allocator {
	t.Helper()
	a, err := New(caps, weights)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := New([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if _, err := New([]float64{1}, []float64{0}); err == nil {
		t.Fatal("zero weight accepted")
	}
	if _, err := New([]float64{-1}, []float64{1}); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

func TestGrantAndShares(t *testing.T) {
	// Paper configuration: FastMem weight 2, SlowMem weight 1.
	a := mustNew(t, []float64{4, 8}, []float64{2, 1})
	a.AddClient(1)
	a.AddClient(2)
	if err := a.Grant(1, []float64{1, 4}); err != nil {
		t.Fatal(err)
	}
	// Client 1: fast share 2*1/4 = 0.5, slow share 1*4/8 = 0.5.
	s, _ := a.DominantShare(1)
	if math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("dominant share = %v", s)
	}
	if err := a.Grant(2, []float64{3, 4}); err != nil {
		t.Fatal(err)
	}
	// Client 2: fast 2*3/4 = 1.5 dominant over slow 0.5.
	if s, _ := a.DominantShare(2); math.Abs(s-1.5) > 1e-12 {
		t.Fatalf("dominant share = %v, want the FastMem share 1.5", s)
	}
	// Capacity exhausted.
	if err := a.Grant(1, []float64{1, 0}); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("want ErrInsufficient, got %v", err)
	}
}

func TestReleaseAndRemove(t *testing.T) {
	a := mustNew(t, []float64{10, 10}, []float64{1, 1})
	a.AddClient(1)
	a.Grant(1, []float64{5, 5})
	if err := a.Release(1, []float64{2, 0}); err != nil {
		t.Fatal(err)
	}
	if got := a.Available(0); got != 7 {
		t.Fatalf("available = %v", got)
	}
	if err := a.Release(1, []float64{100, 0}); err == nil {
		t.Fatal("over-release accepted")
	}
	if err := a.RemoveClient(1); err != nil {
		t.Fatal(err)
	}
	if got := a.Available(0); got != 10 {
		t.Fatalf("available after remove = %v", got)
	}
	if err := a.RemoveClient(1); !errors.Is(err, ErrUnknownClient) {
		t.Fatal("double remove accepted")
	}
}

func TestUnknownClient(t *testing.T) {
	a := mustNew(t, []float64{1}, []float64{1})
	if err := a.Grant(9, []float64{1}); !errors.Is(err, ErrUnknownClient) {
		t.Fatal("grant to unknown client accepted")
	}
	if _, err := a.DominantShare(9); !errors.Is(err, ErrUnknownClient) {
		t.Fatal("share of unknown client accepted")
	}
}

func TestWeightsChangeDominance(t *testing.T) {
	// Small FastMem would never be dominant unweighted; the paper's
	// weight 2 makes modest FastMem holdings register. The same holding
	// of 1 FastMem and 24 SlowMem units is FastMem-dominant weighted
	// (2*1/4 = 0.5 over 24/64 = 0.375) and SlowMem-dominant unweighted
	// (24/64 = 0.375 over 1/4 = 0.25).
	for _, tc := range []struct {
		weights []float64
		want    float64
	}{{[]float64{2, 1}, 0.5}, {[]float64{1, 1}, 0.375}} {
		a := mustNew(t, []float64{4, 64}, tc.weights)
		a.AddClient(1)
		a.Grant(1, []float64{1, 24})
		if s, _ := a.DominantShare(1); s != tc.want {
			t.Fatalf("weights %v: dominant share = %v, want %v", tc.weights, s, tc.want)
		}
	}
}

func TestDRFCouplesResources(t *testing.T) {
	// The Figure 13 failure: two resources arbitrated independently
	// (single-resource max-min) pick a SlowMem victim by SlowMem holdings
	// alone. DRF couples them: Metis's FastMem holding makes its dominant
	// share the larger, so when SlowMem runs short vmm.DRFShare balloons
	// Metis, though GraphChi holds more SlowMem.
	a := mustNew(t, []float64{4, 8}, []float64{2, 1})
	a.AddClient(1) // GraphChi
	a.AddClient(2) // Metis
	// GraphChi: fast 2*0.5/4 = 0.25, slow 4/8 = 0.5.
	a.Grant(1, []float64{0.5, 4})
	// Metis: fast 2*1.5/4 = 0.75, slow 3/8 = 0.375.
	a.Grant(2, []float64{1.5, 3})
	s1, _ := a.DominantShare(1)
	s2, _ := a.DominantShare(2)
	if s1 != 0.5 || s2 != 0.75 {
		t.Fatalf("dominant shares = %v, %v, want 0.5, 0.75", s1, s2)
	}
}
