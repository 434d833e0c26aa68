package drf

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
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
	r, _ := a.DominantResource(2)
	if r != 0 {
		t.Fatalf("dominant resource = %d", r)
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

func TestPickNextPrefersLowestShare(t *testing.T) {
	a := mustNew(t, []float64{100, 100}, []float64{1, 1})
	a.AddClient(1)
	a.AddClient(2)
	a.Grant(1, []float64{50, 0})
	demands := map[ClientID][]float64{
		1: {1, 0},
		2: {0, 1},
	}
	id, ok := a.PickNext(demands)
	if !ok || id != 2 {
		t.Fatalf("picked %d, want 2", id)
	}
}

func TestRunToSaturationClassicDRF(t *testing.T) {
	// The canonical DRF example (Ghodsi et al. §4): 9 CPUs, 18 GB;
	// client A demands <1,4>, client B demands <3,1>. DRF converges to
	// A=3 tasks, B=2 tasks.
	a := mustNew(t, []float64{9, 18}, []float64{1, 1})
	a.AddClient(1)
	a.AddClient(2)
	grants := a.RunToSaturation(map[ClientID][]float64{
		1: {1, 4},
		2: {3, 1},
	}, 1000)
	if grants[1] != 3 || grants[2] != 2 {
		t.Fatalf("grants = %v, want map[1:3 2:2]", grants)
	}
}

func TestWeightsChangeDominance(t *testing.T) {
	// Small FastMem would never be dominant unweighted; the paper's
	// weight 2 makes modest FastMem holdings register.
	a := mustNew(t, []float64{4, 64}, []float64{2, 1})
	a.AddClient(1)
	a.Grant(1, []float64{1, 8})
	// fast: 2*1/4 = 0.5; slow: 8/64 = 0.125.
	r, _ := a.DominantResource(1)
	if r != 0 {
		t.Fatal("weighting failed to make FastMem dominant")
	}
	// Unweighted, slow would tie at equal shares only with much more slow.
	b := mustNew(t, []float64{4, 64}, []float64{1, 1})
	b.AddClient(1)
	b.Grant(1, []float64{1, 32})
	r, _ = b.DominantResource(1)
	if r != 1 {
		t.Fatal("expected SlowMem dominant unweighted")
	}
}

func TestOverCommitted(t *testing.T) {
	a := mustNew(t, []float64{10, 10}, []float64{1, 1})
	a.AddClient(1)
	a.AddClient(2)
	a.Grant(1, []float64{9, 0}) // share 0.9 > fair 0.5
	a.Grant(2, []float64{1, 1}) // share 0.1
	over := a.OverCommitted()
	if len(over) != 1 || over[0] != 1 {
		t.Fatalf("overcommitted = %v", over)
	}
}

func TestParetoEfficiencyProperty(t *testing.T) {
	// Property: after RunToSaturation, no client's unit demand still
	// fits — i.e. no one can be given more without taking from another.
	f := func(d1a, d1b, d2a, d2b uint8) bool {
		da := []float64{float64(d1a%5) + 1, float64(d1b%5) + 1}
		db := []float64{float64(d2a%5) + 1, float64(d2b%5) + 1}
		a := mustNewQuick([]float64{50, 70}, []float64{2, 1})
		a.AddClient(1)
		a.AddClient(2)
		a.RunToSaturation(map[ClientID][]float64{1: da, 2: db}, 10000)
		return !a.fits(da) && !a.fits(db)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func mustNewQuick(caps, weights []float64) *Allocator {
	a, err := New(caps, weights)
	if err != nil {
		panic(err)
	}
	return a
}

func TestStrategyProofnessProperty(t *testing.T) {
	// Property (Ghodsi et al.): inflating a demand vector never
	// increases the resources a client can usefully consume. The theorem
	// is stated for divisible resources, so the test fills progressively
	// with fine-grained units (1/64 of a task) — with coarse indivisible
	// grants a lying client can scoop an unallocatable tail, a known
	// artifact of task-granular DRF rather than a fairness violation.
	const grain = 64
	f := func(d1a, d1b, d2a, d2b, liea, lieb uint8) bool {
		true1 := []float64{float64(d1a%4) + 1, float64(d1b%4) + 1}
		d2 := []float64{float64(d2a%4) + 1, float64(d2b%4) + 1}
		lie := []float64{true1[0] + float64(liea%4), true1[1] + float64(lieb%4)}
		fine := func(v []float64) []float64 {
			return []float64{v[0] / grain, v[1] / grain}
		}

		honest := mustNewQuick([]float64{60, 60}, []float64{2, 1})
		honest.AddClient(1)
		honest.AddClient(2)
		honest.RunToSaturation(map[ClientID][]float64{1: fine(true1), 2: fine(d2)}, 100000)
		honestAlloc, _ := honest.Allocation(1)
		honestTasks := math.Inf(1)
		for j := range honestAlloc {
			honestTasks = math.Min(honestTasks, honestAlloc[j]/true1[j])
		}

		lying := mustNewQuick([]float64{60, 60}, []float64{2, 1})
		lying.AddClient(1)
		lying.AddClient(2)
		lying.RunToSaturation(map[ClientID][]float64{1: fine(lie), 2: fine(d2)}, 100000)
		alloc, _ := lying.Allocation(1)
		// Usable tasks under the true demand from the lying allocation.
		tasks := math.Inf(1)
		for j := range alloc {
			tasks = math.Min(tasks, alloc[j]/true1[j])
		}
		// Slack: at saturation the lying client may scoop a tail the
		// competitor's (larger) unit no longer fits into; that tail is
		// bounded by one competitor unit plus one own unit of resources,
		// i.e. well under 8 fine-grained task units here.
		return tasks <= honestTasks+8.0/grain+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestShareGuaranteeProperty(t *testing.T) {
	// Property: with n clients of positive demands, each saturated
	// client ends with dominant share >= 1/n - epsilon (share guarantee).
	f := func(seeds [6]uint8) bool {
		a := mustNewQuick([]float64{40, 40}, []float64{1, 1})
		demands := map[ClientID][]float64{}
		n := 3
		for i := 0; i < n; i++ {
			id := ClientID(i + 1)
			a.AddClient(id)
			demands[id] = []float64{float64(seeds[2*i]%3) + 1, float64(seeds[2*i+1]%3) + 1}
		}
		a.RunToSaturation(demands, 10000)
		fair := 1.0 / float64(n)
		for id := range demands {
			s, _ := a.DominantShare(id)
			// Discrete grants: a client may trail the fair point by up
			// to one unit of the largest competing demand (3/40 here).
			unit := 3.0 / 40
			if s+unit+1e-9 < fair {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDRFCouplesResources(t *testing.T) {
	// The Figure 13 failure: two resources arbitrated independently
	// (single-resource max-min) let a memory-hungry client take all the
	// spare SlowMem even though it already dominates FastMem. DRF
	// couples the two: Metis's FastMem dominance throttles its SlowMem
	// draw while Graphchi catches up.
	a := mustNewQuick([]float64{4, 8}, []float64{2, 1})
	a.AddClient(1)
	a.AddClient(2)
	a.RunToSaturation(map[ClientID][]float64{
		1: {0.125, 0.5}, // unit: 1/8 of its <1,4> vector
		2: {0.375, 1.0}, // unit: 1/8 of <3,8>
	}, 100000)
	s1, _ := a.DominantShare(1)
	s2, _ := a.DominantShare(2)
	if s2 > s1*1.6+1e-9 {
		t.Fatalf("DRF shares unbalanced: %v vs %v", s1, s2)
	}
}
