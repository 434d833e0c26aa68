package guestos

import (
	"slices"
	"testing"

	"heteroos/internal/memsim"
)

// fakeSource is a FrameSource backed by a memsim.Machine.
type fakeSource struct {
	m     *memsim.Machine
	owner memsim.Owner
	// denyFast simulates a VMM share policy refusing FastMem extensions.
	denyFast bool
}

func newFakeSource(fastFrames, slowFrames uint64) *fakeSource {
	return &fakeSource{
		m:     memsim.NewMachine(fastFrames, slowFrames, memsim.FastTierSpec(), memsim.SlowTierSpec()),
		owner: 1,
	}
}

func (s *fakeSource) Populate(t memsim.Tier, want uint64) []memsim.MFN {
	if t == memsim.FastMem && s.denyFast {
		return nil
	}
	if free := s.m.FreeFrames(t); want > free {
		want = free
	}
	if want == 0 {
		return nil
	}
	fs, err := s.m.Alloc(t, want, s.owner)
	if err != nil {
		return nil
	}
	return fs
}

func (s *fakeSource) PopulateAny(want uint64) []memsim.MFN {
	// Slow-first, like a VMM that reserves FastMem for hot-page
	// migration rather than spending it on bulk reservations.
	out := s.Populate(memsim.SlowMem, want)
	if uint64(len(out)) < want {
		out = append(out, s.Populate(memsim.FastMem, want-uint64(len(out)))...)
	}
	return out
}

func (s *fakeSource) Release(mfns []memsim.MFN) { s.m.Free(mfns, s.owner) }

// testOS boots an aware guest with the given placement and capacities.
func testOS(t *testing.T, pl PlacementConfig, fastMax, slowMax, bootFast, bootSlow uint64) (*OS, *fakeSource) {
	t.Helper()
	src := newFakeSource(fastMax, slowMax)
	os, err := New(Config{
		CPUs: 2, Aware: true,
		FastMaxPages: fastMax, SlowMaxPages: slowMax,
		BootFastPages: bootFast, BootSlowPages: bootSlow,
		Placement: pl,
		Source:    src,
		TierOf:    src.m.TierOf,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return os, src
}

func heapODPlacement() PlacementConfig {
	pl := PlacementConfig{Name: "Heap-OD", OnDemand: true}
	pl.FastKinds[KindAnon] = true
	return pl
}

func heapIOSlabODPlacement() PlacementConfig {
	pl := heapODPlacement()
	pl.Name = "Heap-IO-Slab-OD"
	pl.FastKinds[KindPageCache] = true
	pl.FastKinds[KindNetBuf] = true
	pl.FastKinds[KindSlab] = true
	return pl
}

func heteroLRUPlacement() PlacementConfig {
	pl := heapIOSlabODPlacement()
	pl.Name = "HeteroOS-LRU"
	pl.HeteroLRU = true
	return pl
}

func TestBootReservation(t *testing.T) {
	os, src := testOS(t, heapODPlacement(), 1024, 4096, 256, 1024)
	if got := os.Node(memsim.FastMem).Populated(); got != 256 {
		t.Fatalf("fast populated = %d", got)
	}
	if got := os.Node(memsim.SlowMem).Populated(); got != 1024 {
		t.Fatalf("slow populated = %d", got)
	}
	if src.m.AllocatedFrames(memsim.FastMem) != 256 {
		t.Fatal("machine accounting mismatch")
	}
	if err := os.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHeapPrefersFast(t *testing.T) {
	os, _ := testOS(t, heapODPlacement(), 1024, 4096, 512, 1024)
	pfn, ok := os.allocPage(KindAnon, 0)
	if !ok {
		t.Fatal("alloc failed")
	}
	if os.TierOfPage(pfn) != memsim.FastMem {
		t.Fatal("heap page not in FastMem")
	}
	// Page cache does NOT prefer fast under Heap-OD.
	pfn2, ok := os.allocPage(KindPageCache, 0)
	if !ok {
		t.Fatal("alloc failed")
	}
	if os.TierOfPage(pfn2) != memsim.SlowMem {
		t.Fatal("cache page should go to SlowMem under Heap-OD")
	}
}

func TestHeapIOSlabODRoutesIOToFast(t *testing.T) {
	os, _ := testOS(t, heapIOSlabODPlacement(), 1024, 4096, 512, 1024)
	for _, kind := range []PageKind{KindAnon, KindPageCache, KindNetBuf, KindSlab} {
		pfn, ok := os.allocPage(kind, 0)
		if !ok {
			t.Fatalf("%v alloc failed", kind)
		}
		if os.TierOfPage(pfn) != memsim.FastMem {
			t.Fatalf("%v page not in FastMem", kind)
		}
	}
}

func TestOnDemandPopulationExtendsFast(t *testing.T) {
	os, _ := testOS(t, heapODPlacement(), 2048, 4096, 64, 1024)
	// Allocate beyond the boot reservation: on-demand must extend.
	for i := 0; i < 500; i++ {
		pfn, ok := os.allocPage(KindAnon, 0)
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		if os.TierOfPage(pfn) != memsim.FastMem {
			t.Fatalf("alloc %d spilled to SlowMem with FastMem available", i)
		}
	}
	if got := os.Node(memsim.FastMem).Populated(); got <= 64 {
		t.Fatal("population did not grow")
	}
	if os.DrainEpoch().BalloonPagesIn == 0 {
		t.Fatal("balloon-in pages not accounted")
	}
}

func TestFallbackToSlowWhenFastExhausted(t *testing.T) {
	os, _ := testOS(t, heapODPlacement(), 128, 4096, 128, 1024)
	spilled := false
	for i := 0; i < 300; i++ {
		pfn, ok := os.allocPage(KindAnon, 0)
		if !ok {
			t.Fatalf("alloc %d failed entirely", i)
		}
		if os.TierOfPage(pfn) == memsim.SlowMem {
			spilled = true
			if !os.Store().Has(pfn, FlagFastPref) {
				t.Fatal("spilled page missing FlagFastPref")
			}
		}
	}
	if !spilled {
		t.Fatal("expected spill to SlowMem")
	}
	if os.Window.MissRatio(KindAnon) == 0 {
		t.Fatal("miss ratio not recorded")
	}
}

func TestTouchFaultsAndCharges(t *testing.T) {
	os, _ := testOS(t, heapODPlacement(), 1024, 4096, 512, 1024)
	vma, err := os.AS.Mmap(100, KindAnon, NilFile)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := os.TouchVPN(vma.Start+VPN(i), 3, 1); err != nil {
			t.Fatal(err)
		}
	}
	if vma.Resident != 100 {
		t.Fatalf("resident = %d", vma.Resident)
	}
	st := os.DrainEpoch()
	if st.Faults != 100 {
		t.Fatalf("faults = %d", st.Faults)
	}
	if st.UserLoads[memsim.FastMem] != 300 || st.UserStores[memsim.FastMem] != 100 {
		t.Fatalf("touch accounting wrong: %+v", st.UserLoads)
	}
	if st.OSTimeNs == 0 {
		t.Fatal("no OS time charged")
	}
	if err := os.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMunmapFreesPagesAndPageTables(t *testing.T) {
	os, _ := testOS(t, heapODPlacement(), 1024, 4096, 512, 1024)
	vma, _ := os.AS.Mmap(600, KindAnon, NilFile)
	for i := 0; i < 600; i++ {
		if _, err := os.TouchVPN(vma.Start+VPN(i), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	ptBefore := os.AS.PTPages()
	if ptBefore == 0 {
		t.Fatal("no page-table pages allocated")
	}
	usedBefore := os.Node(memsim.FastMem).UsedPages() + os.Node(memsim.SlowMem).UsedPages()
	if err := os.AS.Munmap(vma.ID); err != nil {
		t.Fatal(err)
	}
	usedAfter := os.Node(memsim.FastMem).UsedPages() + os.Node(memsim.SlowMem).UsedPages()
	if usedAfter >= usedBefore {
		t.Fatal("munmap did not free pages")
	}
	if os.AS.PTPages() != 0 {
		t.Fatalf("page-table pages leaked: %d", os.AS.PTPages())
	}
	if err := os.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFileMappedVMA(t *testing.T) {
	os, _ := testOS(t, heapIOSlabODPlacement(), 1024, 4096, 512, 1024)
	const file = FileID(3)
	vma, _ := os.AS.Mmap(50, KindPageCache, file)
	for i := 0; i < 50; i++ {
		if _, err := os.TouchVPN(vma.Start+VPN(i), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if os.PC.FilePages(file) < 50 {
		t.Fatalf("file pages = %d", os.PC.FilePages(file))
	}
	st := os.DrainEpoch()
	if st.DiskReadPages == 0 {
		t.Fatal("no disk reads charged for cold file map")
	}
	// Munmap keeps pages in the cache.
	if err := os.AS.Munmap(vma.ID); err != nil {
		t.Fatal(err)
	}
	if os.PC.FilePages(file) < 50 {
		t.Fatal("munmap evicted cache pages")
	}
	if err := os.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFileReadWriteThroughCache(t *testing.T) {
	os, _ := testOS(t, heapIOSlabODPlacement(), 1024, 4096, 512, 1024)
	os.PC.ReadaheadWindow = 0
	os.FileRead(7, 0, 16)
	st := os.PeekEpoch()
	if st.DiskReadPages != 16 {
		t.Fatalf("disk reads = %d", st.DiskReadPages)
	}
	os.FileRead(7, 0, 16) // cached
	st = os.PeekEpoch()
	if st.DiskReadPages != 16 {
		t.Fatalf("second read hit disk: %d", st.DiskReadPages)
	}
	if st.KernelCopyBytes[memsim.FastMem] == 0 {
		t.Fatal("cache copies not charged to FastMem")
	}
	os.FileWrite(7, 0, 4)
	if os.PC.DirtyCount() != 4 {
		t.Fatalf("dirty = %d", os.PC.DirtyCount())
	}
	os.EndEpoch() // background writeback
	if os.PC.DirtyCount() != 0 {
		t.Fatal("writeback did not run")
	}
}

func TestNetTransferUsesSkbuffSlab(t *testing.T) {
	os, _ := testOS(t, heapIOSlabODPlacement(), 1024, 4096, 512, 1024)
	os.NetRecv(100, 4096)
	st := os.PeekEpoch()
	if st.KernelCopyBytes[memsim.FastMem] == 0 {
		t.Fatal("no network copies charged")
	}
	sk := os.Slabs[SlabSkbuff]
	if sk.InUse() != 0 {
		t.Fatal("skbuffs leaked")
	}
	allocs, frees, _, _ := sk.Stats()
	if allocs == 0 || allocs != frees {
		t.Fatalf("skbuff churn wrong: %d/%d", allocs, frees)
	}
	if os.PageCensus()[KindNetBuf] == 0 {
		t.Fatal("no netbuf pages retained")
	}
}

func TestLRUSecondChancePromotion(t *testing.T) {
	os, _ := testOS(t, heapODPlacement(), 1024, 4096, 512, 1024)
	vma, _ := os.AS.Mmap(10, KindAnon, NilFile)
	os.TouchVPN(vma.Start, 1, 0)
	lru := os.LRUOf(memsim.FastMem)
	if lru.ActiveCount() != 0 {
		t.Fatal("single touch should not activate")
	}
	os.TouchVPN(vma.Start, 1, 0)
	if lru.ActiveCount() != 1 {
		t.Fatal("second touch should activate")
	}
}

func TestHeteroLRUReclaimKeepsFastAvailable(t *testing.T) {
	// FastMem is tiny; HeteroOS-LRU must demote cold heap pages so new
	// allocations keep landing in FastMem.
	os, _ := testOS(t, heteroLRUPlacement(), 256, 8192, 256, 2048)
	vma, _ := os.AS.Mmap(1024, KindAnon, NilFile)
	for i := 0; i < 1024; i++ {
		if _, err := os.TouchVPN(vma.Start+VPN(i), 1, 1); err != nil {
			t.Fatal(err)
		}
		if i%128 == 0 {
			os.EndEpoch()
		}
	}
	st := os.DrainEpoch()
	_ = st
	total := os.Cum.AllocsByKind[KindAnon]
	if total < 1024 {
		t.Fatalf("allocs = %d", total)
	}
	// With reclaim, a healthy share of allocations got FastMem even
	// though the working set is 4x its size; without reclaim only the
	// first 256 would.
	life := os.WindowLife
	missRatio := life.MissRatio(KindAnon)
	if missRatio > 0.9 {
		t.Fatalf("miss ratio %v: reclaim seems inactive", missRatio)
	}
	if os.PeekEpoch().Demotions+st.Demotions == 0 {
		// Demotions may have been drained earlier; check cumulative via stats drained above.
		t.Logf("note: demotions=%d (drained)", st.Demotions)
	}
	if err := os.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPromotePageValidityChecks(t *testing.T) {
	os, _ := testOS(t, heteroLRUPlacement(), 1024, 4096, 512, 1024)
	// A SlowMem anon page: force by filling fast first.
	vma, _ := os.AS.Mmap(4, KindAnon, NilFile)
	os.TouchVPN(vma.Start, 1, 0)
	pfn, _ := os.AS.Translate(vma.Start)
	if os.TierOfPage(pfn) == memsim.FastMem {
		// Demote it so we can test promotion.
		if !os.demoteAnonPage(pfn) {
			t.Fatal("demotion failed")
		}
		pfn, _ = os.AS.Translate(vma.Start)
	}
	tag := pageView(os.store, pfn).Tag
	if !os.PromotePage(pfn) {
		t.Fatal("promotion failed")
	}
	newPfn, ok := os.AS.Translate(vma.Start)
	if !ok {
		t.Fatal("mapping lost")
	}
	if os.TierOfPage(newPfn) != memsim.FastMem {
		t.Fatal("page not in FastMem after promotion")
	}
	if pageView(os.store, newPfn).Tag != tag {
		t.Fatal("migration corrupted page contents")
	}
	// Invalid candidates are skipped.
	ptCensus := os.PageCensus()
	if ptCensus[KindPageTable] == 0 {
		t.Fatal("need a PT page for the test")
	}
	var ptPFN PFN
	for p := PFN(0); p < PFN(os.NumPFNs()); p++ {
		if pageView(os.store, p).Kind == KindPageTable {
			ptPFN = p
			break
		}
	}
	if os.PromotePage(ptPFN) {
		t.Fatal("page-table page must not migrate")
	}
	if os.PeekEpoch().MigrationsSkipped == 0 {
		t.Fatal("skip not accounted")
	}
}

func TestSwapOutAndSwapIn(t *testing.T) {
	// No SlowMem headroom: reclaim must swap.
	pl := heteroLRUPlacement()
	os, _ := testOS(t, pl, 64, 256, 64, 256)
	vma, _ := os.AS.Mmap(340, KindAnon, NilFile)
	for i := 0; i < 340; i++ {
		if _, err := os.TouchVPN(vma.Start+VPN(i), 1, 0); err != nil {
			t.Fatalf("touch %d: %v", i, err)
		}
	}
	if os.SwappedPages() == 0 {
		t.Fatal("expected swapped pages under extreme pressure")
	}
	// Touch a swapped page: swap-in restores the tag.
	var swappedVPN VPN
	found := false
	for i := 0; i < 280; i++ {
		vpn := vma.Start + VPN(i)
		if _, ok := os.AS.Translate(vpn); !ok {
			if os.swap.has(vpn) {
				swappedVPN = vpn
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no swapped vpn found")
	}
	if _, err := os.TouchVPN(swappedVPN, 1, 0); err != nil {
		t.Fatal(err)
	}
	st := os.DrainEpoch()
	if st.SwapIns == 0 || st.SwapOuts == 0 {
		t.Fatalf("swap accounting: ins=%d outs=%d", st.SwapIns, st.SwapOuts)
	}
	if err := os.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBalloonTargetReleasesFrames(t *testing.T) {
	os, src := testOS(t, heteroLRUPlacement(), 1024, 4096, 512, 2048)
	before := src.m.AllocatedFrames(memsim.SlowMem)
	released := os.BalloonTarget(memsim.SlowMem, 1024)
	if released != 1024 {
		t.Fatalf("released %d, want 1024", released)
	}
	after := src.m.AllocatedFrames(memsim.SlowMem)
	if before-after != 1024 {
		t.Fatalf("machine frames not returned: %d -> %d", before, after)
	}
	if os.Node(memsim.SlowMem).Populated() != 1024 {
		t.Fatalf("population = %d", os.Node(memsim.SlowMem).Populated())
	}
	if err := os.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBalloonTargetReclaimsWhenNoFreePages(t *testing.T) {
	os, _ := testOS(t, heteroLRUPlacement(), 64, 1024, 64, 1024)
	vma, _ := os.AS.Mmap(900, KindAnon, NilFile)
	for i := 0; i < 900; i++ {
		os.TouchVPN(vma.Start+VPN(i), 1, 0)
	}
	// Slow node nearly full of anon pages; ballooning must swap.
	released := os.BalloonTarget(memsim.SlowMem, 512)
	if released == 0 {
		t.Fatal("balloon released nothing")
	}
	if os.SwappedPages() == 0 {
		t.Fatal("balloon under pressure should have swapped")
	}
	if err := os.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTransparentGuestSingleNode(t *testing.T) {
	src := newFakeSource(512, 1536)
	os, err := New(Config{
		CPUs: 1, Aware: false,
		FastMaxPages: 256, SlowMaxPages: 1024,
		BootFastPages: 256, BootSlowPages: 1024,
		Placement: PlacementConfig{Name: "VMM-exclusive", OnDemand: true},
		Source:    src,
		TierOf:    src.m.TierOf,
		Seed:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(os.Nodes()) != 1 {
		t.Fatal("transparent guest must have one node")
	}
	vma, _ := os.AS.Mmap(100, KindAnon, NilFile)
	for i := 0; i < 100; i++ {
		os.TouchVPN(vma.Start+VPN(i), 1, 0)
	}
	// The guest cannot steer placement; backing tier is whatever frame
	// the VMM paired with the guest frame (migration fixes it up later —
	// exactly the VMM-exclusive baseline's weakness).
	byTier := os.ResidentByTier()
	if byTier[memsim.FastMem]+byTier[memsim.SlowMem] < 100 {
		t.Fatalf("resident accounting wrong: %v", byTier)
	}
	// Transparent migration: swap a page's backing MFN to the other tier
	// (the machine keeps spare frames beyond the boot reservation).
	pfn, _ := os.AS.Translate(vma.Start)
	old := pageView(os.store, pfn).MFN
	target := src.m.TierOf(old).Other()
	newMFN, err2 := src.m.AllocOne(target, 1)
	if err2 != nil {
		t.Fatal(err2)
	}
	os.SetBackingMFN(pfn, newMFN)
	if os.TierOfPage(pfn) != target {
		t.Fatal("backing swap did not change tier")
	}
	src.m.Free([]memsim.MFN{old}, 1)
	if err := os.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// takeBit test-and-clears one page's scan bit through a word take
// with a one-bit mask.
func takeBit(take func(w int, mask uint64) uint64, pfn PFN) bool {
	return take(int(pfn>>6), 1<<(pfn&63)) != 0
}

func TestTestAndClearAccessed(t *testing.T) {
	os, _ := testOS(t, heapODPlacement(), 1024, 4096, 512, 1024)
	vma, _ := os.AS.Mmap(1, KindAnon, NilFile)
	os.TouchVPN(vma.Start, 1, 0)
	pfn, _ := os.AS.Translate(vma.Start)
	if !takeBit(os.TakeScanAccessedWord, pfn) {
		t.Fatal("accessed bit not set")
	}
	if takeBit(os.TakeScanAccessedWord, pfn) {
		t.Fatal("accessed bit not cleared")
	}
	os.TouchVPN(vma.Start, 1, 0)
	if !takeBit(os.TakeScanAccessedWord, pfn) {
		t.Fatal("re-touch did not set bit")
	}
}

func TestTrackingListCoversResidentAnon(t *testing.T) {
	os, _ := testOS(t, heapODPlacement(), 1024, 4096, 512, 1024)
	vma, _ := os.AS.Mmap(64, KindAnon, NilFile)
	for i := 0; i < 40; i++ {
		os.TouchVPN(vma.Start+VPN(i), 1, 0)
	}
	os.FileRead(9, 0, 8)
	list := os.TrackingList()
	if len(list) != 40 {
		t.Fatalf("tracking list has %d pages, want 40", len(list))
	}
	for _, pfn := range list {
		if pageView(os.store, pfn).Kind != KindAnon {
			t.Fatal("exception-listed kind in tracking list")
		}
	}
}

// TestTrackingListMatchesTranslate: the per-table export equals a
// Translate of every VPN, in VPN order, across VMAs that straddle
// leaf-table boundaries, skip whole tables and hold a swap entry, and
// it leaves the walkSteps diagnostic untouched.
func TestTrackingListMatchesTranslate(t *testing.T) {
	os, _ := testOS(t, heapODPlacement(), 4096, 8192, 2048, 4096)
	a, _ := os.AS.Mmap(1500, KindAnon, NilFile)
	b, _ := os.AS.Mmap(700, KindAnon, NilFile)
	for i := 0; i < 1500; i++ {
		if i >= 500 && i < 1100 {
			continue // leaves at least one leaf table unallocated
		}
		os.TouchVPN(a.Start+VPN(i), 1, 0)
	}
	// Sparse, but always the last page of a leaf table and of the VMA.
	for vpn := b.Start; vpn < b.End(); vpn++ {
		if vpn%5 == 0 || vpn%ptFanout == ptFanout-1 || vpn == b.End()-1 {
			os.TouchVPN(vpn, 1, 0)
		}
	}
	os.AS.markSwapped(b.Start + 10)
	var want []PFN
	for _, v := range []*VMA{a, b} {
		for vpn := v.Start; vpn < v.End(); vpn++ {
			if pfn, ok := os.AS.Translate(vpn); ok {
				want = append(want, pfn)
			}
		}
	}
	steps := os.AS.WalkSteps()
	if got := os.TrackingList(); !slices.Equal(got, want) {
		t.Fatalf("tracking list has %d pages, per-VPN Translate %d (or a different order)", len(got), len(want))
	}
	if os.AS.WalkSteps() != steps {
		t.Fatalf("TrackingList moved walkSteps %d -> %d", steps, os.AS.WalkSteps())
	}
}

// TestTrackingListCacheInvalidation: TrackingList caches the VMA-walk
// export against the address space's mapping generation; any mutation
// that can change a translation — mmap, a populating touch, munmap —
// must invalidate it, and a no-mutation repeat call must serve the
// cache (no re-walk, same backing buffer).
func TestTrackingListCacheInvalidation(t *testing.T) {
	os, _ := testOS(t, heapODPlacement(), 1024, 4096, 512, 1024)
	vma, _ := os.AS.Mmap(64, KindAnon, NilFile)
	for i := 0; i < 10; i++ {
		os.TouchVPN(vma.Start+VPN(i), 1, 0)
	}

	first := os.TrackingList()
	if len(first) != 10 {
		t.Fatalf("tracking list has %d pages, want 10", len(first))
	}
	gen := os.AS.mapGen
	again := os.TrackingList()
	if os.AS.mapGen != gen {
		t.Fatal("repeat TrackingList bumped the mapping generation")
	}
	if &again[0] != &first[0] || len(again) != len(first) {
		t.Fatal("repeat call with no mutations did not serve the cache")
	}

	// A populating touch maps a new page: the list must grow.
	os.TouchVPN(vma.Start+VPN(10), 1, 0)
	if os.AS.mapGen == gen {
		t.Fatal("populate did not bump the mapping generation")
	}
	if got := os.TrackingList(); len(got) != 11 {
		t.Fatalf("after populate: tracking list has %d pages, want 11", len(got))
	}

	// A new mapping (even before any touch) invalidates; its first
	// touched page must appear.
	vma2, _ := os.AS.Mmap(4, KindAnon, NilFile)
	os.TouchVPN(vma2.Start, 1, 0)
	if got := os.TrackingList(); len(got) != 12 {
		t.Fatalf("after second mmap+touch: tracking list has %d pages, want 12", len(got))
	}

	// Munmap drops the region's pages from the export.
	if err := os.AS.Munmap(vma2.ID); err != nil {
		t.Fatal(err)
	}
	if got := os.TrackingList(); len(got) != 11 {
		t.Fatalf("after munmap: tracking list has %d pages, want 11", len(got))
	}
}

func TestPageCensusAndCumStats(t *testing.T) {
	os, _ := testOS(t, heapIOSlabODPlacement(), 1024, 4096, 512, 1024)
	vma, _ := os.AS.Mmap(32, KindAnon, NilFile)
	for i := 0; i < 32; i++ {
		os.TouchVPN(vma.Start+VPN(i), 1, 0)
	}
	os.FileRead(4, 0, 8)
	os.NetRecv(4, 2048)
	c := os.PageCensus()
	if c[KindAnon] != 32 {
		t.Fatalf("anon census = %d", c[KindAnon])
	}
	if c[KindPageCache] == 0 || c[KindNetBuf] == 0 || c[KindPageTable] == 0 {
		t.Fatalf("census missing kinds: %+v", c)
	}
	if os.Cum.AllocsByKind[KindAnon] < 32 {
		t.Fatal("cumulative allocs wrong")
	}
}

func TestSnapshot(t *testing.T) {
	os, _ := testOS(t, heapIOSlabODPlacement(), 1024, 4096, 512, 1024)
	vma, _ := os.AS.Mmap(1, KindAnon, NilFile)
	os.TouchVPN(vma.Start, 1, 0)
	pfn, _ := os.AS.Translate(vma.Start)
	snap := os.Snapshot(pfn)
	if snap.Kind != KindAnon || !snap.Movable || !snap.Mapped || snap.Free {
		t.Fatalf("snapshot wrong: %+v", snap)
	}
	os.FileWrite(2, 0, 1)
	cachePfn, _ := os.PC.Lookup(2, 0)
	if snap := os.Snapshot(PFN(cachePfn)); !snap.Dirty {
		t.Fatal("dirty cache page not flagged in snapshot")
	}
}

func TestConfigValidation(t *testing.T) {
	src := newFakeSource(16, 16)
	if _, err := New(Config{CPUs: 0, Source: src, TierOf: src.m.TierOf}); err == nil {
		t.Fatal("zero CPUs accepted")
	}
	if _, err := New(Config{CPUs: 1}); err == nil {
		t.Fatal("nil source accepted")
	}
	// Boot bigger than machine: must fail.
	if _, err := New(Config{
		CPUs: 1, Aware: true, FastMaxPages: 64, SlowMaxPages: 64,
		BootFastPages: 64, BootSlowPages: 64,
		Source: src, TierOf: src.m.TierOf,
	}); err == nil {
		t.Fatal("oversubscribed boot accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() [NumKinds]uint64 {
		src := newFakeSource(512, 2048)
		os, err := New(Config{
			CPUs: 2, Aware: true,
			FastMaxPages: 512, SlowMaxPages: 2048,
			BootFastPages: 256, BootSlowPages: 1024,
			Placement: heteroLRUPlacement(),
			Source:    src, TierOf: src.m.TierOf, Seed: 77,
		})
		if err != nil {
			t.Fatal(err)
		}
		vma, _ := os.AS.Mmap(800, KindAnon, NilFile)
		for i := 0; i < 800; i++ {
			os.TouchVPN(vma.Start+VPN(i), 2, 1)
		}
		os.FileRead(3, 0, 64)
		os.NetRecv(16, 8192)
		os.EndEpoch()
		return os.PageCensus()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestExceptionListComplementsTracking(t *testing.T) {
	os, _ := testOS(t, heapODPlacement(), 1024, 4096, 512, 1024)
	vma, _ := os.AS.Mmap(8, KindAnon, NilFile)
	for i := 0; i < 8; i++ {
		os.TouchVPN(vma.Start+VPN(i), 1, 0)
	}
	os.FileRead(3, 0, 4)
	os.NetRecv(2, 1024)
	excluded := map[PageKind]bool{}
	for _, k := range os.ExceptionList() {
		excluded[k] = true
	}
	if excluded[KindAnon] {
		t.Fatal("heap pages must be tracked")
	}
	for _, pfn := range os.TrackingList() {
		if excluded[pageView(os.store, pfn).Kind] {
			t.Fatalf("exception-listed kind %v appears in tracking list", pageView(os.store, pfn).Kind)
		}
	}
}

func TestAccessorsAndScanState(t *testing.T) {
	os, _ := testOS(t, heteroLRUPlacement(), 1024, 4096, 512, 1024)
	if !os.Aware() {
		t.Fatal("Aware() wrong")
	}
	if os.Placement().Name != "HeteroOS-LRU" {
		t.Fatal("Placement() wrong")
	}
	if os.Epoch() != 0 {
		t.Fatal("fresh epoch nonzero")
	}
	if os.Store().Len() != os.NumPFNs() {
		t.Fatal("Store() inconsistent")
	}
	os.EndEpoch()
	if os.Epoch() != 1 {
		t.Fatal("EndEpoch did not advance the epoch")
	}
	os.AddOSTime(123)
	if os.PeekEpoch().OSTimeNs < 123 {
		t.Fatal("AddOSTime lost")
	}

	// Scan-state plumbing: write bit and heats.
	vma, _ := os.AS.Mmap(1, KindAnon, NilFile)
	pfn, _ := os.TouchVPN(vma.Start, 1, 2)
	if !takeBit(os.TakeScanWrittenWord, pfn) {
		t.Fatal("store did not set the written bit")
	}
	if takeBit(os.TakeScanWrittenWord, pfn) {
		t.Fatal("written bit not cleared")
	}
	os.SetScanHeat(pfn, 5)
	os.SetScanWriteHeat(pfn, 6)
	if os.ScanHeat(pfn) != 5 || os.ScanWriteHeat(pfn) != 6 {
		t.Fatal("scan heat accessors broken")
	}
	if os.PromoteRate() != 1 || !os.PromotionWorthwhile() {
		t.Fatal("promotion telemetry must start optimistic")
	}
	if os.AS.Faults() == 0 {
		t.Fatal("Faults() accessor broken")
	}
	if os.AS.WalkSteps() == 0 {
		t.Fatal("WalkSteps() accessor broken")
	}
	_ = os.AS.SwapIns()
}

func TestReleaseFileRange(t *testing.T) {
	os, _ := testOS(t, heapIOSlabODPlacement(), 1024, 4096, 512, 1024)
	os.PC.ReadaheadWindow = 0
	const file = FileID(6)
	os.FileRead(file, 0, 8)
	os.FileWrite(file, 4, 2) // pages 4,5 dirty
	if os.PC.FilePages(file) != 8 {
		t.Fatalf("cached = %d", os.PC.FilePages(file))
	}
	released := os.ReleaseFileRange(file, 0, 8)
	if released != 8 {
		t.Fatalf("released = %d", released)
	}
	if os.PC.FilePages(file) != 0 {
		t.Fatal("pages survived release")
	}
	if os.PeekEpoch().DiskWritePages == 0 {
		t.Fatal("dirty release must charge writeback")
	}
	// Releasing a mapped range unmaps first.
	vma, _ := os.AS.Mmap(4, KindPageCache, file)
	for i := 0; i < 4; i++ {
		os.TouchVPN(vma.Start+VPN(i), 1, 0)
	}
	if got := os.ReleaseFileRange(file, 0, 4); got != 4 {
		t.Fatalf("mapped release = %d", got)
	}
	if vma.Resident != 0 {
		t.Fatal("mapped pages not unmapped on release")
	}
	if err := os.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Absent ranges release nothing.
	if os.ReleaseFileRange(file, 100, 4) != 0 {
		t.Fatal("phantom release")
	}
}

func TestNetSendMirrorsRecv(t *testing.T) {
	os, _ := testOS(t, heapIOSlabODPlacement(), 1024, 4096, 512, 1024)
	os.NetSend(4, 2048)
	if os.PeekEpoch().KernelCopyBytes[memsim.FastMem] == 0 {
		t.Fatal("NetSend charged nothing")
	}
}

func TestCostModelScaled(t *testing.T) {
	c := DefaultCosts()
	s := c.Scaled(64)
	if s.PageFaultNs != c.PageFaultNs*64 || s.DiskReadPageNs != c.DiskReadPageNs*64 {
		t.Fatal("per-page costs must scale")
	}
	if s.TLBFlushNs != c.TLBFlushNs || s.SyscallNs != c.SyscallNs || s.NetOpNs != c.NetOpNs {
		t.Fatal("per-event costs must not scale")
	}
	if bad := c.Scaled(0); bad.PageFaultNs != c.PageFaultNs {
		t.Fatal("non-positive factor must be identity")
	}
}
