package guestos

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"heteroos/internal/memsim"
	"heteroos/internal/obs"
	"heteroos/internal/sim"
)

// refRotateInactive is the single-page second chance rotateRun batches:
// a referenced (or protected) inactive tail page moves to the inactive
// head with its referenced bit cleared.
func refRotateInactive(l *PageLRU, pfn PFN) {
	s := l.store
	if !s.Has(pfn, FlagOnLRU) || s.Has(pfn, FlagActive) {
		return
	}
	l.unlink(&l.inactive, pfn)
	s.Clear(pfn, FlagAccessed)
	l.pushHead(&l.inactive, pfn)
}

// refReclaimPass is reclaimPass as a per-page walk: every visited page
// re-reads the allocation window and rotates on its own. It returns the
// rotations the new pass reports through its lru_rotations counter.
func refReclaimPass(o *OS, idx int, target uint64, cacheOnly bool) (freed, rotations uint64) {
	n := o.nodes[idx]
	l := o.lrus[idx]
	if l.InactiveCount() == 0 {
		o.balanceBuf = l.BalanceInto(o.balanceBuf[:0], int(2*target))
	}
	attempts := l.InactiveCount() + l.ActiveCount()
walk:
	for freed < target && attempts > 0 {
		attempts--
		pfn := l.TailInactive()
		if pfn == NilPFN {
			if cacheOnly {
				break
			}
			o.balanceBuf = l.BalanceInto(o.balanceBuf[:0], int(2*target))
			if len(o.balanceBuf) == 0 {
				break
			}
			continue
		}
		st := o.store
		if st.Has(pfn, FlagAccessed) {
			refRotateInactive(l, pfn)
			rotations++
			continue
		}
		guard := uint32(2)
		if o.Window.OverallMissRatio() > 0.5 {
			guard = 0
		}
		if st.LastUse(pfn)+guard >= o.epoch && o.epoch >= 2 {
			refRotateInactive(l, pfn)
			rotations++
			continue
		}
		if st.ScanHeat(pfn) >= 6 {
			refRotateInactive(l, pfn)
			rotations++
			continue
		}
		switch kind := st.Kind(pfn); kind {
		case KindPageCache:
			o.evictCachePage(pfn)
			freed++
		case KindAnon:
			if cacheOnly {
				refRotateInactive(l, pfn)
				rotations++
				continue
			}
			if n.Tier == memsim.FastMem && o.cfg.Aware {
				if o.ep.Demotions >= demotionRateCap {
					break walk
				}
				if o.demoteToSlow(pfn) {
					freed++
					continue
				}
			}
			if o.swapOutPage(pfn) {
				freed++
			}
		default:
			panic(fmt.Sprintf("guestos: kind %v page %d on LRU", kind, pfn))
		}
	}
	return freed, rotations
}

// refEagerEvictIOPages is eagerEvictIOPages as a per-page walk.
func refEagerEvictIOPages(o *OS) {
	if !o.cfg.Aware {
		return
	}
	fast := o.Node(memsim.FastMem)
	if fast.FreePages() >= fast.HighWatermark || !o.reclaimWorthwhile() {
		return
	}
	l := o.lrus[memsim.FastMem]
	evicted := 0
	scan := l.InactiveCount()
	for scan > 0 && evicted < EagerIOEvictions {
		scan--
		pfn := l.TailInactive()
		if pfn == NilPFN {
			break
		}
		st := o.store
		if st.Kind(pfn) != KindPageCache || st.Has(pfn, FlagAccessed) || st.LastUse(pfn)+3 >= o.epoch {
			refRotateInactive(l, pfn)
			continue
		}
		if !o.PC.Dirty(uint64(pfn)) &&
			o.Node(memsim.SlowMem).FreePages() > 0 && o.demoteToSlow(pfn) {
			evicted++
			continue
		}
		o.evictCachePage(pfn)
		evicted++
	}
}

// reclaimScenario describes one randomized FastMem LRU.
type reclaimScenario struct {
	seed       int64
	activeFrac float64 // share of resident pages activated (laps above count)
	guardZero  bool    // heavy allocation misses relax the recency guard
	tight      bool    // FastMem nearly full, so eager I/O eviction runs
	early      bool    // epoch 1, before the recency guard applies
}

// reclaimFixture boots an aware guest whose FastMem LRU holds an
// interleaved mix of anonymous and page-cache pages, then randomizes
// the state reclaim reads: referenced bits, LastUse at epoch, epoch-2,
// epoch-3 and epoch-4, ScanHeat 0/5/6/7, and activation. The same
// scenario always builds the same guest.
func reclaimFixture(t *testing.T, sc reclaimScenario) *OS {
	t.Helper()
	o, _ := testOS(t, heteroLRUPlacement(), 512, 8192, 512, 4096)
	rng := rand.New(rand.NewSource(sc.seed))
	vma, err := o.AS.Mmap(256, KindAnon, NilFile)
	if err != nil {
		t.Fatal(err)
	}
	var nextVPN, nextOff uint64
	for i := 0; i < 200+rng.Intn(100); i++ {
		if rng.Intn(2) == 0 && nextVPN < vma.Pages {
			if _, err := o.TouchVPN(vma.Start+VPN(nextVPN), 1, 0); err != nil {
				t.Fatal(err)
			}
			nextVPN++
		} else {
			o.FileRead(FileID(3), nextOff, 1)
			nextOff++
		}
	}
	if sc.tight {
		// Fill FastMem past its high watermark with off-LRU pages.
		fast := o.Node(memsim.FastMem)
		for fast.FreePages() >= fast.HighWatermark {
			if _, ok := o.allocPage(KindSlab); !ok {
				t.Fatal("slab fill failed")
			}
		}
	}
	epoch := uint32(10)
	// epoch-3 is the recency guard's edge; epoch-4 is old enough for
	// eager I/O eviction.
	lastUse := []uint32{epoch, epoch - 2, epoch - 3, epoch - 4}
	if sc.early {
		epoch = 1
		lastUse = []uint32{1, 0}
	}
	o.epoch = epoch
	l := o.lrus[memsim.FastMem]
	st := o.store
	for pfn := PFN(0); pfn < PFN(st.Len()); pfn++ {
		if !st.Has(pfn, FlagOnLRU) {
			continue
		}
		st.SetLastUse(pfn, lastUse[rng.Intn(len(lastUse))])
		st.SetScanHeat(pfn, []uint8{0, 0, 5, 6, 7}[rng.Intn(5)])
		st.Clear(pfn, FlagAccessed)
		if rng.Float64() < sc.activeFrac {
			l.MarkAccessed(pfn)
			l.MarkAccessed(pfn)
		}
		if rng.Intn(3) == 0 {
			st.Set(pfn, FlagAccessed)
		}
	}
	if sc.guardZero {
		for o.Window.OverallMissRatio() <= 0.5 {
			o.Window.Record(KindAnon, true, memsim.SlowMem)
		}
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return o
}

// lruOrder lists a node's active and inactive pages head to tail.
func lruOrder(l *PageLRU) (active, inactive []PFN) {
	for pfn := l.active.head; pfn != NilPFN; pfn = l.store.LRUNext(pfn) {
		active = append(active, pfn)
	}
	for pfn := l.inactive.head; pfn != NilPFN; pfn = l.store.LRUNext(pfn) {
		inactive = append(inactive, pfn)
	}
	return active, inactive
}

// sameGuest reports the first difference between two guests' LRU
// order, per-page metadata (flags, kind, links, LastUse, heat), and
// epoch and cumulative counters.
func sameGuest(a, b *OS) error {
	for i := range a.lrus {
		aa, ai := lruOrder(a.lrus[i])
		ba, bi := lruOrder(b.lrus[i])
		if !reflect.DeepEqual(aa, ba) || !reflect.DeepEqual(ai, bi) {
			return fmt.Errorf("node %d LRU order differs:\nref  active %v inactive %v\ngot  active %v inactive %v",
				i, aa, ai, ba, bi)
		}
	}
	for pfn := PFN(0); pfn < PFN(a.store.Len()); pfn++ {
		if pa, pb := pageView(a.store, pfn), pageView(b.store, pfn); pa != pb {
			return fmt.Errorf("page %d differs:\nref %+v\ngot %+v", pfn, pa, pb)
		}
	}
	if !reflect.DeepEqual(a.ep, b.ep) {
		return fmt.Errorf("epoch stats differ:\nref %+v\ngot %+v", a.ep, b.ep)
	}
	if !reflect.DeepEqual(a.Cum, b.Cum) {
		return fmt.Errorf("cumulative stats differ:\nref %+v\ngot %+v", a.Cum, b.Cum)
	}
	for i, o := range []*OS{a, b} {
		if err := o.CheckInvariants(); err != nil {
			return fmt.Errorf("guest %d: %v", i, err)
		}
	}
	return nil
}

// TestReclaimPassMatchesPerPageWalk runs the run-rotating reclaim pass
// and the per-page reference walk side by side on identically built
// guests and requires the same guest after every pass: LRU order, page
// metadata, freed pages, rotations and epoch counters.
func TestReclaimPassMatchesPerPageWalk(t *testing.T) {
	var folded, freedAny, cacheOnlyFreed, demoted, eager bool
	for i := 0; i < 48; i++ {
		sc := reclaimScenario{
			seed:       int64(100 + i),
			activeFrac: []float64{0, 0.3, 0.8}[i%3],
			guardZero:  i%4 >= 2,
			tight:      i%2 == 0,
			early:      i%7 == 3,
		}
		t.Run(fmt.Sprintf("seed%d", sc.seed), func(t *testing.T) {
			ref, got := reclaimFixture(t, sc), reclaimFixture(t, sc)
			if err := sameGuest(ref, got); err != nil {
				t.Fatalf("fixtures differ before any pass: %v", err)
			}
			got.AttachObs(obs.New().Scope(1, func() sim.Duration { return 0 }))
			rotCounter := got.obs.lruRotations
			ops := rand.New(rand.NewSource(sc.seed * 7))
			for pass := 0; pass < 8; pass++ {
				l := got.lrus[memsim.FastMem]
				inactive := l.InactiveCount()
				if ops.Intn(4) == 0 {
					moved := got.ep.CacheEvictions + got.ep.Demotions
					refEagerEvictIOPages(ref)
					got.eagerEvictIOPages()
					eager = eager || got.ep.CacheEvictions+got.ep.Demotions > moved
				} else {
					target := []uint64{1, 3, 16, 64, 1 << 20}[ops.Intn(5)]
					cacheOnly := ops.Intn(2) == 0
					wantFreed, wantRot := refReclaimPass(ref, int(memsim.FastMem), target, cacheOnly)
					before := rotCounter.Value()
					freed := got.reclaimPass(int(memsim.FastMem), target, cacheOnly)
					rot := rotCounter.Value() - before
					if freed != wantFreed || rot != wantRot {
						t.Fatalf("pass %d (target %d, cacheOnly %v): freed %d rotations %d, reference %d/%d",
							pass, target, cacheOnly, freed, rot, wantFreed, wantRot)
					}
					folded = folded || rot > inactive
					freedAny = freedAny || freed > 0
					cacheOnlyFreed = cacheOnlyFreed || cacheOnly && freed > 0
				}
				if err := sameGuest(ref, got); err != nil {
					t.Fatalf("after pass %d: %v", pass, err)
				}
				demoted = demoted || got.ep.Demotions > 0
				// Fresh references between passes, identical on both.
				for pfn := PFN(0); pfn < PFN(got.store.Len()); pfn++ {
					if got.store.Has(pfn, FlagOnLRU) && ops.Intn(6) == 0 {
						ref.store.Set(pfn, FlagAccessed)
						got.store.Set(pfn, FlagAccessed)
					}
				}
			}
		})
	}
	for name, hit := range map[string]bool{
		"lap folding": folded, "any freed": freedAny,
		"cache-only eviction": cacheOnlyFreed, "demotion": demoted,
		"eager I/O eviction": eager,
	} {
		if !hit {
			t.Errorf("no scenario exercised %s", name)
		}
	}
}

// TestReclaimPassZeroAlloc pins the steady-state pass (a cache-only
// pass over protected pages that frees nothing, folding its laps) at
// zero allocations: the protection predicate must not escape.
func TestReclaimPassZeroAlloc(t *testing.T) {
	o := reclaimFixture(t, reclaimScenario{seed: 9, activeFrac: 0.8})
	st := o.store
	for pfn := PFN(0); pfn < PFN(st.Len()); pfn++ {
		if st.Has(pfn, FlagOnLRU) {
			st.SetLastUse(pfn, o.epoch)
		}
	}
	idx := int(memsim.FastMem)
	o.reclaimPass(idx, 8, true)
	if n := testing.AllocsPerRun(100, func() {
		if o.reclaimPass(idx, 8, true) != 0 {
			t.Fatal("protected pages were reclaimed")
		}
	}); n != 0 {
		t.Fatalf("reclaimPass allocated %.1f times per run", n)
	}
}
