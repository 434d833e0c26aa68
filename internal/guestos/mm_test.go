package guestos

import (
	"bytes"
	"testing"
	"testing/quick"

	"heteroos/internal/memsim"
	"heteroos/internal/snapshot"
)

// mmOS boots a generously sized OS for address-space tests.
func mmOS(t *testing.T) *OS {
	t.Helper()
	os, _ := testOS(t, heapODPlacement(), 1<<15, 1<<16, 1<<14, 1<<15)
	return os
}

func TestMmapValidation(t *testing.T) {
	os := mmOS(t)
	if _, err := os.AS.Mmap(0, KindAnon, NilFile); err == nil {
		t.Error("zero-page mmap accepted")
	}
	if _, err := os.AS.Mmap(4, KindSlab, NilFile); err == nil {
		t.Error("slab-kind mmap accepted")
	}
	if err := os.AS.Munmap(999); err == nil {
		t.Error("munmap of unknown VMA accepted")
	}
}

func TestVMAsDoNotOverlap(t *testing.T) {
	os := mmOS(t)
	var vmas []*VMA
	for i := 0; i < 20; i++ {
		v, err := os.AS.Mmap(uint64(10+i*7), KindAnon, NilFile)
		if err != nil {
			t.Fatal(err)
		}
		vmas = append(vmas, v)
	}
	for i := 0; i < len(vmas); i++ {
		for j := i + 1; j < len(vmas); j++ {
			a, b := vmas[i], vmas[j]
			if a.Start < b.End() && b.Start < a.End() {
				t.Fatalf("VMAs %d and %d overlap", a.ID, b.ID)
			}
		}
	}
	if err := os.AS.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFindVMA(t *testing.T) {
	os := mmOS(t)
	v, _ := os.AS.Mmap(16, KindAnon, NilFile)
	if got, ok := os.AS.FindVMA(v.Start + 5); !ok || got.ID != v.ID {
		t.Fatal("FindVMA missed interior page")
	}
	if _, ok := os.AS.FindVMA(v.End()); ok {
		t.Fatal("FindVMA matched one past the end")
	}
	if got, ok := os.AS.VMAByID(v.ID); !ok || got != v {
		t.Fatal("VMAByID broken")
	}
}

func TestPageTableGeometry(t *testing.T) {
	os := mmOS(t)
	v, _ := os.AS.Mmap(1, KindAnon, NilFile)
	if _, err := os.TouchVPN(v.Start, 1, 0); err != nil {
		t.Fatal(err)
	}
	// One resident leaf needs one node per level.
	if got := os.AS.ptPages; got != ptLevels {
		t.Fatalf("PT pages = %d, want %d", got, ptLevels)
	}
	// A second page in the same 512-page leaf region shares all nodes.
	v2, _ := os.AS.Mmap(1, KindAnon, NilFile)
	if sameLeaf := ptIndex(v.Start, 1) == ptIndex(v2.Start, 1) &&
		v.Start>>18 == v2.Start>>18; sameLeaf {
		os.TouchVPN(v2.Start, 1, 0)
		if got := os.AS.ptPages; got != ptLevels {
			t.Fatalf("PT pages = %d after same-leaf map", got)
		}
	}
	// A far-away page allocates a fresh subtree below the shared root.
	far, _ := os.AS.Mmap(1, KindAnon, NilFile)
	_ = far
}

func TestPageTableReclaimBottomUp(t *testing.T) {
	os := mmOS(t)
	// Map pages spread across many leaf tables.
	v, _ := os.AS.Mmap(ptFanout*3, KindAnon, NilFile)
	for i := uint64(0); i < ptFanout*3; i += 64 {
		if _, err := os.TouchVPN(v.Start+VPN(i), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if os.AS.ptPages == 0 {
		t.Fatal("no PT pages")
	}
	if err := os.AS.Munmap(v.ID); err != nil {
		t.Fatal(err)
	}
	if got := os.AS.ptPages; got != 0 {
		t.Fatalf("PT pages leaked: %d", got)
	}
	if os.AS.ResidentPages() != 0 {
		t.Fatal("resident pages leaked")
	}
	// The whole tree is gone; a new mapping rebuilds it cleanly.
	v2, _ := os.AS.Mmap(4, KindAnon, NilFile)
	if _, err := os.TouchVPN(v2.Start, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := os.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTranslateAndSwapMarkers(t *testing.T) {
	os := mmOS(t)
	v, _ := os.AS.Mmap(4, KindAnon, NilFile)
	if _, ok := os.AS.Translate(v.Start); ok {
		t.Fatal("unmapped vpn translated")
	}
	pfn, err := os.TouchVPN(v.Start, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := os.AS.Translate(v.Start)
	if !ok || got != pfn {
		t.Fatalf("Translate = %d,%v want %d", got, ok, pfn)
	}
	// Swap the page out by hand and verify the marker state.
	if !os.swapOutPage(pfn) {
		t.Fatal("swap out failed")
	}
	if _, ok := os.AS.Translate(v.Start); ok {
		t.Fatal("swapped vpn still translates")
	}
	if _, ok := os.swap.slots[v.Start]; !ok {
		t.Fatal("swap slot missing")
	}
	// Touch swaps it back in.
	pfn2, err := os.TouchVPN(v.Start, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := os.swap.slots[v.Start]; ok {
		t.Fatal("swap slot not freed on swap-in")
	}
	if pfn2 == NilPFN {
		t.Fatal("swap-in returned no frame")
	}
}

func TestSwapPreservesContents(t *testing.T) {
	os := mmOS(t)
	v, _ := os.AS.Mmap(1, KindAnon, NilFile)
	pfn, _ := os.TouchVPN(v.Start, 1, 0)
	tag := pageView(os.store, pfn).Tag
	os.swapOutPage(pfn)
	pfn2, _ := os.TouchVPN(v.Start, 1, 0)
	if pageView(os.store, pfn2).Tag != tag {
		t.Fatal("swap round-trip corrupted contents")
	}
}

func TestMunmapFreesSwapSlots(t *testing.T) {
	os := mmOS(t)
	v, _ := os.AS.Mmap(8, KindAnon, NilFile)
	for i := 0; i < 8; i++ {
		os.TouchVPN(v.Start+VPN(i), 1, 0)
	}
	for i := 0; i < 8; i++ {
		pfn, ok := os.AS.Translate(v.Start + VPN(i))
		if !ok {
			t.Fatal("lost mapping")
		}
		os.swapOutPage(pfn)
	}
	if len(os.swap.slots) != 8 {
		t.Fatalf("swapped = %d", len(os.swap.slots))
	}
	os.AS.Munmap(v.ID)
	if len(os.swap.slots) != 0 {
		t.Fatalf("swap slots leaked: %d", len(os.swap.slots))
	}
}

func TestAddrSpacePropertyMapUnmap(t *testing.T) {
	// Property: any interleaving of mmap/touch/munmap keeps VMAs
	// non-overlapping, resident counts exact, and PT pages balanced.
	f := func(ops []uint16) bool {
		os, _ := quickOS()
		var live []*VMA
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // mmap small region
				v, err := os.AS.Mmap(uint64(op%32)+1, KindAnon, NilFile)
				if err != nil {
					return false
				}
				live = append(live, v)
			case 2: // touch random page of a live vma
				if len(live) > 0 {
					v := live[int(op>>2)%len(live)]
					vpn := v.Start + VPN(uint64(op>>4)%v.Pages)
					if _, err := os.TouchVPN(vpn, 1, 1); err != nil {
						return false
					}
				}
			case 3: // munmap one
				if len(live) > 0 {
					i := int(op>>2) % len(live)
					if err := os.AS.Munmap(live[i].ID); err != nil {
						return false
					}
					live = append(live[:i], live[i+1:]...)
				}
			}
		}
		return os.AS.CheckInvariants() == nil && os.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// quickOS builds an OS without *testing.T for property functions.
func quickOS() (*OS, *fakeSource) {
	src := newFakeSource(1<<14, 1<<15)
	pl := PlacementConfig{Name: "quick"}
	pl.FastKinds[KindAnon] = true
	os, err := New(Config{
		Aware:        true,
		FastMaxPages: 1 << 14, SlowMaxPages: 1 << 15,
		BootFastPages: 1 << 13, BootSlowPages: 1 << 14,
		Placement: pl, Source: src, TierOf: src.m.TierOf, Seed: 5,
	})
	if err != nil {
		panic(err)
	}
	return os, src
}

func TestTierOfPagePanicsOnUnpopulated(t *testing.T) {
	os := mmOS(t)
	// Find an unpopulated frame (the spans exceed boot population).
	var target PFN = NilPFN
	for pfn := PFN(0); pfn < PFN(os.NumPFNs()); pfn++ {
		if pageView(os.store, pfn).MFN == memsim.NilMFN {
			target = pfn
			break
		}
	}
	if target == NilPFN {
		t.Skip("no unpopulated frame")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	os.TierOfPage(target)
}

// uncachedTranslate finds vpn's leaf table by a linear scan of a's
// table list, ignoring the leaf cache and the binary search. It returns
// vpn's leaf entry widened (ptEntryAbsent when no table covers vpn).
func uncachedTranslate(a *AddrSpace, vpn VPN) PFN {
	for _, t := range a.tables {
		if t.level == 0 && t.base == vpn&^ptFanoutMask {
			return PFN(widen(t.ents[vpn&ptFanoutMask]))
		}
	}
	return ptEntryAbsent
}

// TestLeafCacheFollowsTableLifetime drives one page through every event
// that frees or replaces a page-table page while the leaf cache holds
// it: the table's last entry unmapped, a remap, a swap-out and swap-in
// (the swap-in clears the marker, freeing the table, then remaps),
// Munmap, and a snapshot restored over the live address space. After
// each step every probed VPN must translate as an uncached walk does,
// and CheckInvariants must accept the cache.
func TestLeafCacheFollowsTableLifetime(t *testing.T) {
	os := mmOS(t)
	a := os.AS
	// A's one page sits in the first leaf table; B starts in that same
	// table and ends in the next one, where a page stays mapped so the
	// interior tables outlive A's.
	va, _ := a.Mmap(1, KindAnon, NilFile)
	vb, _ := a.Mmap(ptFanout, KindAnon, NilFile)
	bLast := vb.End() - 1
	if va.Start>>ptFanoutBits != vb.Start>>ptFanoutBits || va.Start>>ptFanoutBits == bLast>>ptFanoutBits {
		t.Fatalf("layout: A at %d, B %d..%d do not straddle one table boundary", va.Start, vb.Start, bLast)
	}
	if _, err := os.TouchVPN(bLast, 1, 0); err != nil {
		t.Fatal(err)
	}
	probes := []VPN{va.Start, vb.Start, bLast, bLast - 1, va.Start, bLast}
	check := func(step string) {
		t.Helper()
		for _, vpn := range probes {
			got, ok := a.Translate(vpn)
			entry := uncachedTranslate(a, vpn)
			if wok := entry != ptEntryAbsent && entry != ptEntrySwapped; ok != wok || ok && got != entry {
				t.Fatalf("%s: Translate(%d) = %d/%v, uncached walk %d/%v", step, vpn, got, ok, entry, wok)
			}
		}
		// CheckInvariants runs after the probes: its resident sweep walks
		// every VMA and would replace a stale cache before they saw it.
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	// warm points the cache at vpn's table before a step that may free it.
	warm := func(vpn VPN) {
		t.Helper()
		a.Translate(vpn)
		if a.leaf == noLeaf || a.leafKey != vpn>>ptFanoutBits {
			t.Fatalf("leaf cache not holding vpn %d's table", vpn)
		}
	}

	pfn, err := os.TouchVPN(va.Start, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	check("map")

	warm(va.Start)
	tables := a.ptPages
	os.freePage(pfn) // unmaps A's page, the last live entry of its table
	if a.ptPages != tables-1 {
		t.Fatalf("unmap: PT pages %d, want %d (leaf table freed)", a.ptPages, tables-1)
	}
	check("unmap-last-entry")

	if pfn, err = os.TouchVPN(va.Start, 1, 0); err != nil {
		t.Fatal(err)
	}
	check("remap")

	warm(va.Start)
	if !os.swapOutPage(pfn) {
		t.Fatal("swap out failed")
	}
	check("swap-out")
	warm(va.Start)
	if _, err := os.TouchVPN(va.Start, 1, 0); err != nil {
		t.Fatal(err)
	}
	check("swap-in")

	warm(va.Start)
	if err := a.Munmap(va.ID); err != nil {
		t.Fatal(err)
	}
	check("munmap")

	warm(bLast)
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.State("as", a.snapshotState); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := snapshot.Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.State("as", a.snapshotState); err != nil {
		t.Fatal(err)
	}
	check("restore")
	if _, err := os.TouchVPN(bLast-1, 1, 0); err != nil {
		t.Fatal(err)
	}
	check("map-after-restore")
}
