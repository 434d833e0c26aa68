package guestos

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"heteroos/internal/memsim"
	"heteroos/internal/obs"
	"heteroos/internal/sim"
	"heteroos/internal/snapshot"
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

// mutateBetweenPasses applies one seeded change that can break or keep
// a lap memo to both guests identically, through the same hooks the
// simulation uses: fresh references, a scan-heat drop, deactivation of
// active pages, a move inserting an old page, fresh allocations, an
// epoch advance or a recency-guard flip. vmas holds each guest's spare
// anonymous mapping for fresh allocations; next is its next unused
// page.
func mutateBetweenPasses(t *testing.T, ops *rand.Rand, guests [2]*OS, vmas [2]*VMA, next *uint64) {
	t.Helper()
	st := guests[1].store
	each := func(f func(o *OS)) {
		for _, o := range guests {
			f(o)
		}
	}
	// pick returns the LRU pages of node idx passing keep, in PFN order.
	pick := func(idx int, keep func(PFN) bool) []PFN {
		var out []PFN
		for pfn := PFN(0); pfn < PFN(st.Len()); pfn++ {
			if st.Has(pfn, FlagOnLRU) && guests[1].nodeIndexOf(pfn) == idx && keep(pfn) {
				out = append(out, pfn)
			}
		}
		return out
	}
	switch ops.Intn(9) {
	case 0, 1:
		// Fresh references.
		for pfn := PFN(0); pfn < PFN(st.Len()); pfn++ {
			if st.Has(pfn, FlagOnLRU) && ops.Intn(6) == 0 {
				each(func(o *OS) { o.store.Set(pfn, FlagAccessed) })
			}
		}
	case 2:
		// The scanner cools inactive pages it held decisively hot.
		for _, pfn := range pick(int(memsim.FastMem), func(p PFN) bool {
			return !st.Has(p, FlagActive) && st.ScanHeat(p) >= 6
		}) {
			if ops.Intn(2) == 0 {
				each(func(o *OS) { o.SetScanHeat(pfn, 2) })
			}
		}
	case 3:
		// Active pages fall to the inactive list, singly or by balance.
		if ops.Intn(2) == 0 {
			for _, pfn := range pick(int(memsim.FastMem), func(p PFN) bool { return st.Has(p, FlagActive) }) {
				if ops.Intn(3) == 0 {
					each(func(o *OS) { o.lrus[memsim.FastMem].Deactivate(pfn) })
				}
			}
		} else {
			max := 1 + ops.Intn(32)
			each(func(o *OS) { o.balanceBuf = o.lrus[memsim.FastMem].BalanceInto(o.balanceBuf[:0], max) })
		}
	case 4:
		// A page moves across nodes with its old LastUse and no heat:
		// a demotion to SlowMem, or the reverse.
		from, to := memsim.FastMem, memsim.SlowMem
		if ops.Intn(2) == 0 {
			from, to = to, from
		}
		if old := pick(int(from), func(p PFN) bool {
			return !st.Has(p, FlagActive) && st.LastUse(p)+3 <= guests[1].epoch
		}); len(old) > 0 {
			pfn := old[ops.Intn(len(old))]
			each(func(o *OS) { o.movePageAcrossNodes(pfn, to, false) })
		}
	case 5:
		// Fresh allocations.
		count := 1 + uint64(ops.Intn(8))
		for i := range guests {
			for j := uint64(0); j < count && *next+j < vmas[i].Pages; j++ {
				if _, err := guests[i].TouchVPN(vmas[i].Start+VPN(*next+j), 1, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		*next += count
	case 6:
		each(func(o *OS) { o.epoch++ })
	case 7, 8:
		// Flip the recency guard through the allocation window.
		if guests[1].reclaimGuard() == 0 {
			each(func(o *OS) { o.Window.Reset() })
		} else {
			each(func(o *OS) {
				for o.Window.OverallMissRatio() <= 0.5 {
					o.Window.Record(KindAnon, true, memsim.SlowMem)
				}
			})
		}
	}
}

// TestReclaimPassMatchesPerPageWalk runs the run-rotating reclaim pass
// and the per-page reference walk side by side on identically built
// guests and requires the same guest after every pass: LRU order, page
// metadata, freed pages, rotations and epoch counters. Between passes
// both guests take the same change that can break a lap memo, so a
// pass that replays a memoized lap is checked against a real walk
// after every kind of invalidation (and CheckInvariants, in sameGuest,
// re-evaluates every live memo).
func TestReclaimPassMatchesPerPageWalk(t *testing.T) {
	var folded, freedAny, cacheOnlyFreed, demoted, eager, memoHit bool
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
			var vmas [2]*VMA
			for i, o := range []*OS{ref, got} {
				v, err := o.AS.Mmap(64, KindAnon, NilFile)
				if err != nil {
					t.Fatal(err)
				}
				vmas[i] = v
			}
			var next uint64
			scope := obs.New().Scope(1, func() sim.Duration { return 0 })
			got.AttachObs(scope)
			rotations := func() uint64 {
				return uint64(scope.Registry().Snapshot().Find("guestos.lru_rotations").Value)
			}
			ops := rand.New(rand.NewSource(sc.seed * 7))
			for pass := 0; pass < 24; pass++ {
				if ops.Intn(6) == 0 {
					moved := got.ep.CacheEvictions + got.ep.Demotions
					refEagerEvictIOPages(ref)
					got.eagerEvictIOPages()
					eager = eager || got.ep.CacheEvictions+got.ep.Demotions > moved
				} else {
					idx := int(memsim.FastMem)
					if ops.Intn(4) == 0 {
						idx = int(memsim.SlowMem)
					}
					l := got.lrus[idx]
					inactive := l.InactiveCount()
					target := []uint64{1, 3, 16, 64, 1 << 20}[ops.Intn(5)]
					cacheOnly := ops.Intn(2) == 0
					hit := inactive > 0 && l.memoHolds(got.epoch, got.reclaimGuard(), cacheOnly)
					wantFreed, wantRot := refReclaimPass(ref, idx, target, cacheOnly)
					before := rotations()
					freed := got.reclaimPass(idx, target, cacheOnly)
					rot := rotations() - before
					if freed != wantFreed || rot != wantRot {
						t.Fatalf("pass %d (node %d, target %d, cacheOnly %v, memo hit %v): freed %d rotations %d, reference %d/%d",
							pass, idx, target, cacheOnly, hit, freed, rot, wantFreed, wantRot)
					}
					folded = folded || rot > inactive
					freedAny = freedAny || freed > 0
					cacheOnlyFreed = cacheOnlyFreed || cacheOnly && freed > 0
					memoHit = memoHit || hit
				}
				if err := sameGuest(ref, got); err != nil {
					t.Fatalf("after pass %d: %v", pass, err)
				}
				demoted = demoted || got.ep.Demotions > 0
				mutateBetweenPasses(t, ops, [2]*OS{ref, got}, vmas, &next)
				if err := sameGuest(ref, got); err != nil {
					t.Fatalf("after the change following pass %d: %v", pass, err)
				}
			}
		})
	}
	for name, hit := range map[string]bool{
		"lap folding": folded, "any freed": freedAny,
		"cache-only eviction": cacheOnlyFreed, "demotion": demoted,
		"eager I/O eviction": eager, "memo hit": memoHit,
	} {
		if !hit {
			t.Errorf("no scenario exercised %s", name)
		}
	}
}

// TestReclaimPassZeroAlloc pins the steady-state pass (a cache-only
// pass over protected pages that frees nothing) at zero allocations,
// both when it walks and folds the lap and when it replays the
// memoized lap: the protection predicate must not escape.
func TestReclaimPassZeroAlloc(t *testing.T) {
	o := reclaimFixture(t, reclaimScenario{seed: 9, activeFrac: 0.8})
	st := o.store
	for pfn := PFN(0); pfn < PFN(st.Len()); pfn++ {
		if st.Has(pfn, FlagOnLRU) {
			st.SetLastUse(pfn, o.epoch)
		}
	}
	idx := int(memsim.FastMem)
	l := o.lrus[idx]
	o.reclaimPass(idx, 8, true)
	if !l.memoHolds(o.epoch, o.reclaimGuard(), true) {
		t.Fatal("an all-protected pass left no lap memo")
	}
	for _, hit := range []bool{false, true} {
		if n := testing.AllocsPerRun(100, func() {
			if !hit {
				l.memo = lapMemo{}
			}
			if o.reclaimPass(idx, 8, true) != 0 {
				t.Fatal("protected pages were reclaimed")
			}
		}); n != 0 {
			t.Fatalf("reclaimPass (memo hit %v) allocated %.1f times per run", hit, n)
		}
	}
}

// TestCheckInvariantsCatchesBrokenLapMemo plants, in each reclaim
// mode, a lap memo over an inactive page that is not protected in that
// mode: CheckInvariants must name the page while the memo's epoch is
// current, and ignore a memo of an earlier epoch, which no pass can
// act on.
func TestCheckInvariantsCatchesBrokenLapMemo(t *testing.T) {
	for _, cacheOnly := range []bool{false, true} {
		o := reclaimFixture(t, reclaimScenario{seed: 5, activeFrac: 0.3})
		l := o.lrus[memsim.FastMem]
		guard := o.reclaimGuard()
		victim := NilPFN
		for pfn := l.inactive.head; pfn != NilPFN; pfn = o.store.LRUNext(pfn) {
			if !reclaimProtected(o.store, pfn, o.epoch, guard, cacheOnly) {
				victim = pfn
				break
			}
		}
		if victim == NilPFN {
			t.Fatalf("cacheOnly %v: fixture has no unprotected inactive page", cacheOnly)
		}
		l.memo = lapMemo{epoch: o.epoch - 1, guard: uint8(guard), modes: memoMode(cacheOnly)}
		if err := o.CheckInvariants(); err != nil {
			t.Fatalf("cacheOnly %v: stale memo checked: %v", cacheOnly, err)
		}
		l.memo.epoch = o.epoch
		want := fmt.Sprintf("inactive page %d is unprotected", victim)
		if err := o.CheckInvariants(); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("cacheOnly %v: CheckInvariants = %v, want an error containing %q", cacheOnly, err, want)
		}
	}
}

// checkpointGuest returns o's state as checkpoint bytes.
func checkpointGuest(t *testing.T, o *OS) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.State("guestos", func(c *snapshot.Codec) error { return o.SnapshotState(c, nil) }); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// restoreGuest overlays checkpoint bytes onto o.
func restoreGuest(t *testing.T, o *OS, b []byte) {
	t.Helper()
	r, err := snapshot.Open(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.State("guestos", func(c *snapshot.Codec) error { return o.SnapshotState(c, nil) }); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreInPlaceClearsLapMemo checkpoints a guest, runs it until a
// lap memo is live, and restores the checkpoint onto the same guest:
// the memo described lists the restore replaced, so the passes that
// follow must match a freshly booted guest restored from the same
// bytes.
func TestRestoreInPlaceClearsLapMemo(t *testing.T) {
	o := reclaimFixture(t, reclaimScenario{seed: 11, activeFrac: 0.3})
	ckpt := checkpointGuest(t, o)
	idx := int(memsim.FastMem)
	// A cache-only pass that evicts every unprotected cache page ends
	// in an all-protected lap.
	if o.reclaimPass(idx, 1<<20, true) == 0 {
		t.Fatal("the first pass freed nothing")
	}
	if !o.lrus[idx].memoHolds(o.epoch, o.reclaimGuard(), true) {
		t.Fatal("no lap memo after an all-protected lap")
	}
	restoreGuest(t, o, ckpt)
	fresh, _ := testOS(t, heteroLRUPlacement(), 512, 8192, 512, 4096)
	restoreGuest(t, fresh, ckpt)
	if err := sameGuest(fresh, o); err != nil {
		t.Fatalf("after restore: %v", err)
	}
	for pass, cacheOnly := range []bool{true, false, true} {
		want := fresh.reclaimPass(idx, 1<<20, cacheOnly)
		if got := o.reclaimPass(idx, 1<<20, cacheOnly); got != want {
			t.Fatalf("pass %d (cacheOnly %v): freed %d, freshly restored guest %d", pass, cacheOnly, got, want)
		}
		if err := sameGuest(fresh, o); err != nil {
			t.Fatalf("after pass %d: %v", pass, err)
		}
	}
}
