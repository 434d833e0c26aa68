package guestos

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// lruFixture builds a PageLRU over a private store; pages are marked
// in-use so Insert's flag checks behave as in production.
func lruFixture(n uint64) (*PageStore, *PageLRU) {
	store := NewPageStore(n)
	for pfn := PFN(0); pfn < PFN(n); pfn++ {
		store.SetKind(pfn, KindAnon)
	}
	return store, NewPageLRU(store)
}

func TestLRUInsertRemove(t *testing.T) {
	_, l := lruFixture(16)
	l.Insert(3)
	l.Insert(7)
	if l.Count() != 2 || l.InactiveCount() != 2 || l.ActiveCount() != 0 {
		t.Fatalf("counts wrong: %d/%d/%d", l.Count(), l.InactiveCount(), l.ActiveCount())
	}
	if !l.Contains(3) || l.Contains(4) {
		t.Fatal("Contains wrong")
	}
	l.Remove(3)
	if l.Count() != 1 || l.Contains(3) {
		t.Fatal("remove failed")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUDoubleInsertPanics(t *testing.T) {
	_, l := lruFixture(4)
	l.Insert(1)
	defer func() {
		if recover() == nil {
			t.Fatal("double insert did not panic")
		}
	}()
	l.Insert(1)
}

func TestLRURemoveAbsentPanics(t *testing.T) {
	_, l := lruFixture(4)
	defer func() {
		if recover() == nil {
			t.Fatal("remove of absent page did not panic")
		}
	}()
	l.Remove(2)
}

func TestLRUSecondChanceActivation(t *testing.T) {
	_, l := lruFixture(8)
	l.Insert(0)
	l.MarkAccessed(0) // first touch: referenced bit only
	if l.ActiveCount() != 0 {
		t.Fatal("activated on first touch")
	}
	l.MarkAccessed(0) // second touch: activate
	if l.ActiveCount() != 1 || l.InactiveCount() != 0 {
		t.Fatal("second touch did not activate")
	}
	acts, _ := l.Stats()
	if acts != 1 {
		t.Fatalf("activations = %d", acts)
	}
}

func TestLRUDeactivateAndRotate(t *testing.T) {
	store, l := lruFixture(8)
	l.Insert(0)
	l.MarkAccessed(0)
	l.MarkAccessed(0)
	l.Deactivate(0)
	if l.ActiveCount() != 0 || store.Has(0, FlagAccessed) {
		t.Fatal("deactivate must clear referenced bit and move lists")
	}
	// Tail rotation clears the bit and keeps the page inactive; the run
	// stops at the unreferenced page 1 behind it.
	l.Insert(1)
	store.Set(0, FlagAccessed)
	if n := l.rotateRun(5, func(PFN) bool { return false }); n != 1 {
		t.Fatalf("rotateRun = %d, want 1", n)
	}
	if store.Has(0, FlagAccessed) || !l.Contains(0) {
		t.Fatal("rotate semantics wrong")
	}
	// TailInactive returns the oldest inactive page (1, since the
	// rotated 0 went to the head).
	if got := l.TailInactive(); got != 1 {
		t.Fatalf("tail = %d, want 1", got)
	}
}

// TestRotateRunMatchesSingleRotations checks rotateRun against the
// single-page rotations it stands for, on random inactive lists with
// random referenced bits and protected sets, for budgets below, equal
// to and several laps above the list length: same order, same flags,
// and a return value equal to the number of single rotations made.
func TestRotateRunMatchesSingleRotations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(12)
		protected := make([]bool, n)
		// Some trials protect every page, so whole laps fold.
		allProtected := trial%4 == 0
		for i := range protected {
			protected[i] = allProtected || rng.Intn(3) == 0
		}
		prot := func(pfn PFN) bool { return protected[pfn] }
		refStore, ref := lruFixture(uint64(n))
		gotStore, got := lruFixture(uint64(n))
		for _, pfn := range rng.Perm(n) {
			ref.Insert(PFN(pfn))
			got.Insert(PFN(pfn))
			if rng.Intn(2) == 0 {
				refStore.Set(PFN(pfn), FlagAccessed)
				gotStore.Set(PFN(pfn), FlagAccessed)
			}
		}
		max := uint64(rng.Intn(4*n + 2))
		var want uint64
		for want < max {
			tail := ref.TailInactive()
			if !refStore.Has(tail, FlagAccessed) && !protected[tail] {
				break
			}
			refRotateInactive(ref, tail)
			want++
		}
		if r := got.rotateRun(max, prot); r != want {
			t.Fatalf("trial %d (n=%d max=%d): rotateRun = %d, single rotations = %d", trial, n, max, r, want)
		}
		_, wantOrder := lruOrder(ref)
		_, gotOrder := lruOrder(got)
		if !slices.Equal(wantOrder, gotOrder) {
			t.Fatalf("trial %d (n=%d max=%d): order %v, want %v", trial, n, max, gotOrder, wantOrder)
		}
		for pfn := PFN(0); pfn < PFN(n); pfn++ {
			if refStore.Flags(pfn) != gotStore.Flags(pfn) {
				t.Fatalf("trial %d: page %d flags %v, want %v", trial, pfn, gotStore.Flags(pfn), refStore.Flags(pfn))
			}
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestLRUBalanceCapsAndOrder(t *testing.T) {
	_, l := lruFixture(64)
	// Build a large active list.
	for pfn := PFN(0); pfn < 10; pfn++ {
		l.Insert(pfn)
		l.MarkAccessed(pfn)
		l.MarkAccessed(pfn)
	}
	if l.ActiveCount() != 10 {
		t.Fatal("setup failed")
	}
	demoted := l.Balance(3)
	if len(demoted) != 3 {
		t.Fatalf("Balance demoted %d, want cap 3", len(demoted))
	}
	// Oldest activations demote first (active tail).
	if demoted[0] != 0 || demoted[1] != 1 || demoted[2] != 2 {
		t.Fatalf("demotion order wrong: %v", demoted)
	}
	// Balance stops once lists even out.
	all := l.Balance(100)
	if l.ActiveCount() > l.InactiveCount() {
		t.Fatalf("unbalanced after full Balance: %d/%d (moved %d)",
			l.ActiveCount(), l.InactiveCount(), len(all))
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUMarkAccessedOffList(t *testing.T) {
	store, l := lruFixture(4)
	// Pages not on the LRU are ignored without panic.
	l.MarkAccessed(2)
	if store.Has(2, FlagAccessed) {
		t.Fatal("off-list page must not gain the referenced bit via LRU")
	}
}

func TestLRUInvariantProperty(t *testing.T) {
	// Property: arbitrary insert/touch/deactivate/balance/remove
	// interleavings keep both lists structurally sound and every page on
	// exactly one list.
	f := func(ops []uint16) bool {
		store, l := lruFixture(64)
		onLRU := map[PFN]bool{}
		for _, op := range ops {
			pfn := PFN(op % 64)
			switch op % 5 {
			case 0:
				if !onLRU[pfn] {
					l.Insert(pfn)
					onLRU[pfn] = true
				}
			case 1:
				if onLRU[pfn] {
					l.MarkAccessed(pfn)
				}
			case 2:
				if onLRU[pfn] {
					l.Deactivate(pfn)
				}
			case 3:
				l.Balance(int(op>>4) % 8)
			case 4:
				if onLRU[pfn] {
					l.Remove(pfn)
					delete(onLRU, pfn)
				}
			}
		}
		if int(l.Count()) != len(onLRU) {
			return false
		}
		for pfn := range onLRU {
			if !store.Has(pfn, FlagOnLRU) {
				return false
			}
		}
		return l.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPageKindStringsAndMovability(t *testing.T) {
	if KindAnon.String() != "heap/anon" || KindNetBuf.String() != "NW-buff" {
		t.Fatal("kind names diverge from Figure 4 labels")
	}
	if PageKind(77).String() == "" {
		t.Fatal("unknown kind should render")
	}
	movable := map[PageKind]bool{
		KindAnon: true, KindPageCache: true, KindNetBuf: true, KindSlab: true,
		KindPageTable: false, KindDMA: false, KindFree: false,
	}
	for k, want := range movable {
		if k.Movable() != want {
			t.Errorf("%v movable = %v, want %v", k, k.Movable(), want)
		}
	}
}
