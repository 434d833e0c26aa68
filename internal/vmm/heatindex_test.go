package vmm

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"heteroos/internal/guestos"
	"heteroos/internal/memsim"
)

// assertRankingsMatch cross-checks every exported ranking query against
// the rankIn reference for both tiers and several truncation
// points, then validates the index's internal invariants.
func assertRankingsMatch(t *testing.T, sc *Scanner, machine *memsim.Machine, step string) {
	t.Helper()
	if sc.index == nil {
		t.Fatalf("%s: scanner has no index attached", step)
	}
	if err := sc.index.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	for _, tier := range []memsim.Tier{memsim.FastMem, memsim.SlowMem} {
		for _, max := range []int{1, 7, 64, 1 << 20} {
			// Copy index-served results: they live in reusable buffers.
			got := append([]guestos.PFN(nil), sc.HottestIn(tier, max)...)
			comparePFNs(t, step, "HottestIn", tier, max, got, sc.rankIn(machine, tier, true, max, false))
			got = append([]guestos.PFN(nil), sc.ColdestIn(tier, max)...)
			comparePFNs(t, step, "ColdestIn", tier, max, got, sc.rankIn(machine, tier, false, max, false))
			got = append([]guestos.PFN(nil), sc.CoolestIn(tier, max)...)
			comparePFNs(t, step, "CoolestIn", tier, max, got, sc.rankIn(machine, tier, false, max, true))
		}
	}
}

// rankIn collects pages backed by tier whose score satisfies the
// thresholds (unless ignoreThreshold), ordered by score (desc when
// hotFirst) with PFN tiebreak for determinism, truncated to max.
//
// It is the sweep-and-sort reference for the ranking semantics: the
// heat-bucket index serves the exported queries, and the differential
// tests assert the two produce identical output.
func (s *Scanner) rankIn(machine *memsim.Machine, tier memsim.Tier, hotFirst bool, max int, ignoreThreshold bool) []guestos.PFN {
	type entry struct {
		pfn  guestos.PFN
		heat uint8
	}
	var cands []entry
	for pfn := guestos.PFN(0); pfn < guestos.PFN(s.view.NumPFNs()); pfn++ {
		h := s.score(pfn)
		if !ignoreThreshold && hotFirst && h < s.HotThreshold {
			continue
		}
		if !ignoreThreshold && !hotFirst && h > s.ColdThreshold {
			continue
		}
		snap := s.view.Snapshot(pfn)
		if snap.MFN == memsim.NilMFN {
			continue
		}
		if snap.Free && s.TrustGuestState {
			continue
		}
		if machine.TierOf(snap.MFN) != tier {
			continue
		}
		cands = append(cands, entry{pfn, h})
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].heat != cands[j].heat {
			if hotFirst {
				return cands[i].heat > cands[j].heat
			}
			return cands[i].heat < cands[j].heat
		}
		return cands[i].pfn < cands[j].pfn
	})
	if len(cands) > max {
		cands = cands[:max]
	}
	out := make([]guestos.PFN, len(cands))
	for i, c := range cands {
		out[i] = c.pfn
	}
	return out
}

func comparePFNs(t *testing.T, step, query string, tier memsim.Tier, max int, got, want []guestos.PFN) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %s(tier %v, max %d): index returned %d pages, sweep %d\nindex: %v\nsweep: %v",
			step, query, tier, max, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: %s(tier %v, max %d): position %d differs: index %d, sweep %d\nindex: %v\nsweep: %v",
				step, query, tier, max, i, got[i], want[i], got, want)
		}
	}
}

// TestHeatIndexDifferentialTransparent drives a transparent (non-aware)
// guest through random touches, scans, VMM-exclusive migrations and
// mmap/munmap churn, asserting after every step that the index-served
// rankings are identical to the sweep-and-sort reference.
func TestHeatIndexDifferentialTransparent(t *testing.T) {
	machine := newMachine(256, 1024)
	m := New(machine, StaticShare{})
	spec := VMSpec{ID: 1}
	spec.MaxPages[memsim.FastMem] = 256
	spec.MaxPages[memsim.SlowMem] = 1024
	vm, _ := m.CreateVM(spec)
	os := bootGuest(t, m, vm, false, guestos.PlacementConfig{Name: "vmm-excl"}, 64, 960, 64, 960)

	sc := NewScanner(os, DefaultScanCosts())
	sc.BatchPages = int(os.NumPFNs())
	os.SetPageIndexer(NewHeatIndex(sc, machine.TierOf))
	mig := NewMigrator(DefaultMigrateCosts())

	vma, err := os.AS.Mmap(400, guestos.KindAnon, guestos.NilFile)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	assertRankingsMatch(t, sc, machine, "boot")
	for step := 0; step < 48; step++ {
		switch rng.Intn(4) {
		case 0: // touch a random batch of the main mapping
			for i := 0; i < 32; i++ {
				vpn := vma.Start + guestos.VPN(rng.Intn(int(vma.Pages)))
				os.TouchVPN(vpn, uint64(1+rng.Intn(4)), uint64(rng.Intn(2)))
			}
		case 1: // full-span scan pass (decays + re-heats)
			sc.ScanNext()
		case 2: // VMM-exclusive migration (SetBackingMFN path)
			mig.Rebalance(vm, sc, 16)
		case 3: // map/unmap churn (populate + freePage paths)
			v2, err := os.AS.Mmap(uint64(8+rng.Intn(32)), guestos.KindAnon, guestos.NilFile)
			if err == nil {
				for i := uint64(0); i < v2.Pages; i++ {
					os.TouchVPN(v2.Start+guestos.VPN(i), 1, 0)
				}
				if rng.Intn(2) == 0 {
					os.AS.Munmap(v2.ID)
				}
			}
		}
		assertRankingsMatch(t, sc, machine, fmt.Sprintf("step %d", step))
	}
	if err := os.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHeatIndexDifferentialCoordinated drives an aware guest through
// coordinated passes, epoch maintenance (watermark reclaim, HeteroLRU
// balance, guest-driven inter-node moves) and ballooning, with
// TrustGuestState on so the free-page filter is exercised.
func TestHeatIndexDifferentialCoordinated(t *testing.T) {
	machine := newMachine(512, 2048)
	m := New(machine, StaticShare{})
	spec := VMSpec{ID: 1}
	spec.MaxPages[memsim.FastMem] = 512
	spec.MaxPages[memsim.SlowMem] = 2048
	vm, _ := m.CreateVM(spec)
	pl := guestos.PlacementConfig{Name: "coord", HeteroLRU: true}
	pl.FastKinds[guestos.KindAnon] = true
	os := bootGuest(t, m, vm, true, pl, 256, 2048, 128, 1024)

	sc := NewScanner(os, DefaultScanCosts())
	sc.BatchPages = 64 * 1024
	sc.TrustGuestState = true
	os.SetPageIndexer(NewHeatIndex(sc, machine.TierOf))

	vma, err := os.AS.Mmap(600, guestos.KindAnon, guestos.NilFile)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	assertRankingsMatch(t, sc, machine, "boot")
	for step := 0; step < 40; step++ {
		switch rng.Intn(5) {
		case 0: // touches (on-demand faults populate as they go)
			for i := 0; i < 48; i++ {
				vpn := vma.Start + guestos.VPN(rng.Intn(int(vma.Pages)))
				os.TouchVPN(vpn, uint64(1+rng.Intn(3)), 0)
			}
		case 1: // coordinated scan + guest-driven migration
			CoordinatedPass(vm, sc, os, 32)
		case 2: // watermark reclaim + LRU balance (movePageAcrossNodes)
			os.EndEpoch()
		case 3: // balloon deflate: releaseFreeFrames + reclaim
			n := os.Node(memsim.SlowMem)
			if pop := n.Populated(); pop > 64 {
				os.BalloonTarget(memsim.SlowMem, pop-uint64(16+rng.Intn(32)))
			}
		case 4:
			sc.ScanTracked(os.TrackingList())
		}
		assertRankingsMatch(t, sc, machine, fmt.Sprintf("step %d", step))
	}
	if err := os.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHeatIndexDifferentialWriteAware repeats the differential check
// with write tracking and a write boost, so bucket assignment exercises
// the combined read+write score.
func TestHeatIndexDifferentialWriteAware(t *testing.T) {
	machine := newMachine(64, 1024)
	m := New(machine, StaticShare{})
	spec := VMSpec{ID: 1}
	spec.MaxPages[memsim.SlowMem] = 1024
	vm, _ := m.CreateVM(spec)
	os := bootGuest(t, m, vm, false, guestos.PlacementConfig{Name: "nvm"}, 0, 1024, 0, 1024)
	_ = vm

	sc := NewScanner(os, DefaultScanCosts())
	sc.BatchPages = int(os.NumPFNs())
	sc.TrackWrites = true
	sc.WriteBoost = 3
	os.SetPageIndexer(NewHeatIndex(sc, machine.TierOf))

	vma, err := os.AS.Mmap(64, guestos.KindAnon, guestos.NilFile)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 24; step++ {
		for i := 0; i < 16; i++ {
			vpn := vma.Start + guestos.VPN(rng.Intn(int(vma.Pages)))
			os.TouchVPN(vpn, uint64(rng.Intn(4)), uint64(rng.Intn(4)))
		}
		sc.ScanNext()
		assertRankingsMatch(t, sc, machine, fmt.Sprintf("step %d", step))
	}
}

// TestHeatIndexQueriesZeroAlloc asserts the index-served ranking queries
// are allocation-free once the scratch buffers have warmed up — the
// point of the exercise for the epoch hot path.
func TestHeatIndexQueriesZeroAlloc(t *testing.T) {
	machine := newMachine(256, 1024)
	m := New(machine, StaticShare{})
	spec := VMSpec{ID: 1}
	spec.MaxPages[memsim.FastMem] = 256
	spec.MaxPages[memsim.SlowMem] = 1024
	vm, _ := m.CreateVM(spec)
	os := bootGuest(t, m, vm, false, guestos.PlacementConfig{Name: "vmm-excl"}, 64, 960, 64, 960)
	_ = vm

	sc := NewScanner(os, DefaultScanCosts())
	sc.BatchPages = int(os.NumPFNs())
	os.SetPageIndexer(NewHeatIndex(sc, machine.TierOf))

	vma, _ := os.AS.Mmap(300, guestos.KindAnon, guestos.NilFile)
	for round := 0; round < 3; round++ {
		for i := 0; i < 300; i++ {
			os.TouchVPN(vma.Start+guestos.VPN(i), 1, 0)
		}
		sc.ScanNext()
	}

	const max = 256
	queries := map[string]func(){
		"HottestIn": func() { sc.HottestIn(memsim.SlowMem, max) },
		"ColdestIn": func() { sc.ColdestIn(memsim.SlowMem, max) },
		"CoolestIn": func() { sc.CoolestIn(memsim.SlowMem, max) },
	}
	for name, fn := range queries {
		fn() // warm the scratch buffer
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %v per op with index attached, want 0", name, n)
		}
	}
}

// TestScanCostFlushRounding pins the TLB-flush count to ceiling
// division: a pass of exactly FlushBatchPages pages is one flush, one
// page past it is two, and any non-empty pass is at least one.
func TestScanCostFlushRounding(t *testing.T) {
	s := &Scanner{costs: ScanCosts{TLBFlushNs: 1000, FlushBatchPages: 512}}
	cases := []struct {
		pages int
		want  float64
	}{
		{0, 0},
		{1, 1000},
		{511, 1000},
		{512, 1000},
		{513, 2000},
		{1024, 2000},
		{1025, 3000},
	}
	for _, c := range cases {
		if got := s.scanCost(c.pages); got != c.want {
			t.Errorf("scanCost(%d) = %v ns, want %v", c.pages, got, c.want)
		}
	}
}

// stubView is a minimal GuestView that records which pages a scan
// takes access bits for. Its pages are never referenced and hold no
// heat.
type stubView struct {
	span    uint64
	heat    []uint8
	wheat   []uint8
	scanned []guestos.PFN
}

func newStubView(span uint64) *stubView {
	return &stubView{span: span, heat: make([]uint8, span), wheat: make([]uint8, span)}
}

func (v *stubView) NumPFNs() uint64                                    { return v.span }
func (v *stubView) Snapshot(pfn guestos.PFN) guestos.PageSnapshot      { return guestos.PageSnapshot{} }
func (v *stubView) SetBackingMFN(pfn guestos.PFN, mfn memsim.MFN)      {}
func (v *stubView) TrackingList() []guestos.PFN                        { return nil }
func (v *stubView) ScanHeat(pfn guestos.PFN) uint8                     { return v.heat[pfn] }
func (v *stubView) SetScanHeat(pfn guestos.PFN, h uint8)               { v.heat[pfn] = h }
func (v *stubView) ScanWriteHeat(pfn guestos.PFN) uint8                { return v.wheat[pfn] }
func (v *stubView) ScanHeatNonzeroWord(w int, mask uint64) uint64      { return 0 }
func (v *stubView) TakeScanWrittenWord(w int, mask uint64) uint64      { return 0 }
func (v *stubView) ScanWriteHeatNonzeroWord(w int, mask uint64) uint64 { return 0 }

// FoldScanHeatWord is never reached: with no referenced page and no
// heat, a scan has no page to fold.
func (v *stubView) FoldScanHeatWord(w int, work, ref, written uint64, writes bool) {
	panic("stubView: fold with no page to fold")
}
func (v *stubView) TakeScanAccessedWord(w int, mask uint64) uint64 {
	for ; mask != 0; mask &= mask - 1 {
		v.scanned = append(v.scanned, guestos.PFN(w<<6+bits.TrailingZeros64(mask)))
	}
	return 0
}

// TestScanTrackedRotation verifies that the tracked-list cursor is a
// list position: batches rotate through the whole list, and when the
// list grows or shrinks between passes the scan continues from where it
// stopped instead of re-anchoring (a monotone counter taken mod len
// re-scans the head and starves the tail whenever the length changes).
func TestScanTrackedRotation(t *testing.T) {
	v := newStubView(64)
	sc := NewScanner(v, DefaultScanCosts())
	sc.BatchPages = 4

	mkList := func(n int) []guestos.PFN {
		l := make([]guestos.PFN, n)
		for i := range l {
			l[i] = guestos.PFN(i)
		}
		return l
	}
	// scan returns the pages one pass covered, ascending: the scanner
	// takes the bits of one 64-page word at a time, in bit order.
	scan := func(list []guestos.PFN) []guestos.PFN {
		v.scanned = v.scanned[:0]
		sc.ScanTracked(list)
		out := append([]guestos.PFN(nil), v.scanned...)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	expect := func(step string, got, want []guestos.PFN) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: scanned %v, want %v", step, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: scanned %v, want %v", step, got, want)
			}
		}
	}

	list := mkList(10)
	expect("pass 1", scan(list), []guestos.PFN{0, 1, 2, 3})
	expect("pass 2", scan(list), []guestos.PFN{4, 5, 6, 7})
	expect("pass 3 (wrap)", scan(list), []guestos.PFN{0, 1, 8, 9})

	// Growing the list must continue from position 2, not re-anchor.
	list = mkList(15)
	expect("after grow", scan(list), []guestos.PFN{2, 3, 4, 5})

	// Shrinking below the cursor wraps the position into range.
	list = mkList(3)
	expect("after shrink", scan(list), []guestos.PFN{0, 1, 2})

	// Empty list is a no-op and must not disturb the cursor state.
	if res := sc.ScanTracked(nil); res.Scanned != 0 || res.CostNs != 0 {
		t.Fatalf("empty tracked list scanned %d pages, cost %v", res.Scanned, res.CostNs)
	}
}

// TestHeatIndexCheckCatchesBadOccupancy: CheckInvariants must notice an
// occupancy bit missing for a bucket that holds pages, and one set for a
// bucket that holds none or was never used.
func TestHeatIndexCheckCatchesBadOccupancy(t *testing.T) {
	machine := newMachine(256, 1024)
	m := New(machine, StaticShare{})
	spec := VMSpec{ID: 1}
	spec.MaxPages[memsim.FastMem] = 256
	spec.MaxPages[memsim.SlowMem] = 1024
	vm, _ := m.CreateVM(spec)
	os := bootGuest(t, m, vm, false, guestos.PlacementConfig{Name: "vmm-excl"}, 64, 960, 64, 960)
	sc := NewScanner(os, DefaultScanCosts())
	sc.BatchPages = int(os.NumPFNs())
	x := NewHeatIndex(sc, machine.TierOf)
	os.SetPageIndexer(x)
	vma, _ := os.AS.Mmap(300, guestos.KindAnon, guestos.NilFile)
	for i := 0; i < 300; i++ {
		os.TouchVPN(vma.Start+guestos.VPN(i), 1, 0)
	}
	sc.ScanNext()
	sc.ScanNext()
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Score 4 was used and emptied by the second pass (4 decays to 2
	// when unreferenced); score 0 holds the never-touched pages.
	tier := int(memsim.SlowMem)
	if b := x.bucket(tier, 4); b == nil || b.count != 0 {
		t.Fatal("setup: score 4 is not a used, empty bucket")
	}
	if b := x.bucket(tier, 0); b == nil || b.count == 0 {
		t.Fatal("setup: score 0 holds no page")
	}
	for name, corrupt := range map[string]func(){
		"occupied bucket unmarked": func() { x.occupied[tier][0] &^= 1 << 0 },
		"empty bucket marked":      func() { x.occupied[tier][0] |= 1 << 4 },
		"unused bucket marked":     func() { x.occupied[tier][3] |= 1 << 63 },
	} {
		saved := x.occupied
		corrupt()
		if x.CheckInvariants() == nil {
			t.Errorf("%s not detected", name)
		}
		x.occupied = saved
	}
}

// TestHeatNodeSize pins the per-PFN index node at three bytes (bucket,
// tier, flags): bucket membership lives only in the bitmaps.
func TestHeatNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(heatNode{}); got != 3 {
		t.Fatalf("heatNode is %d bytes, want 3", got)
	}
}

// unbackedView is a stubView whose every page is unbacked, so an index
// over it holds no bucket and allocates only its fixed parts.
type unbackedView struct{ *stubView }

func (unbackedView) Snapshot(guestos.PFN) guestos.PageSnapshot {
	return guestos.PageSnapshot{MFN: memsim.NilMFN}
}

// TestHeatIndexFootprint pins what an index costs before any page is
// filed: at most 1.5 KiB of fixed structure (the (tier, score) slot
// table is 1 KiB) plus the 3-byte node per PFN. The fleet keeps one
// index per VM, so the fixed part is paid ten thousand times.
func TestHeatIndexFootprint(t *testing.T) {
	const span = 4096
	sc := NewScanner(unbackedView{newStubView(span)}, DefaultScanCosts())
	tierOf := func(memsim.MFN) memsim.Tier { return memsim.FastMem }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	x := NewHeatIndex(sc, tierOf)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(x)
	got := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(1536 + 3*span); got > limit {
		t.Fatalf("NewHeatIndex over %d PFNs allocates %d B, want at most %d", span, got, limit)
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRebuildMatchesPerPageInsert: Rebuild's word-grouped seed files
// every page exactly where a page-by-page insert sweep would. The guest
// (span 1064, ending mid-word) has unbacked PFNs, free and allocated
// pages on both tiers, and heat that is constant over some words and
// scattered over many levels in others. The two indexes must agree in
// their summaries, rank walks, slot tables and per-page nodes, the
// second time over a reused index too.
func TestRebuildMatchesPerPageInsert(t *testing.T) {
	for _, trackWrites := range []bool{false, true} {
		t.Run(fmt.Sprintf("writes=%v", trackWrites), func(t *testing.T) {
			g, machine := scanGuest(t)
			vma, err := g.AS.Mmap(700, guestos.KindAnon, guestos.NilFile)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 400; i++ {
				if _, err := g.TouchVPN(vma.Start+guestos.VPN(rng.Intn(700)), 1, uint64(rng.Intn(2))); err != nil {
					t.Fatal(err)
				}
			}
			sc := NewScanner(g, DefaultScanCosts())
			if trackWrites {
				sc.TrackWrites, sc.WriteBoost = true, 1.5
			}
			var x *HeatIndex
			for round := 0; round < 2; round++ {
				randomHeat(g, rng)
				if x == nil {
					x = NewHeatIndex(sc, machine.TierOf)
				} else {
					x.Rebuild()
				}
				ref := perPageRebuild(sc, machine.TierOf)
				compareIndexes(t, fmt.Sprintf("round %d", round), x, ref)
			}
		})
	}
}

// randomHeat gives every page new scan and write heat: one value for a
// whole word on some words, a value per page over many levels on
// others.
func randomHeat(g *guestos.OS, rng *rand.Rand) {
	levels := []uint8{0, 1, 2, 3, 4, 6, 9, 17, 40, 128, 255}
	span := guestos.PFN(g.NumPFNs())
	for base := guestos.PFN(0); base < span; base += 64 {
		uniform := rng.Intn(3) == 0
		h, w := levels[rng.Intn(len(levels))], levels[rng.Intn(4)]
		for pfn := base; pfn < base+64 && pfn < span; pfn++ {
			if !uniform {
				h, w = uint8(rng.Intn(256)), levels[rng.Intn(len(levels))]
			}
			g.SetScanHeat(pfn, h)
			g.Store().SetScanWriteHeat(pfn, w)
		}
	}
}

// perPageRebuild seeds a detached index over sc's guest one page at a
// time with insert, in ascending PFN order: the reference for
// Rebuild's word-grouped seed.
func perPageRebuild(sc *Scanner, tierOf func(memsim.MFN) memsim.Tier) *HeatIndex {
	x := &HeatIndex{scanner: sc, view: sc.view, tierOf: tierOf, nodes: make([]heatNode, sc.view.NumPFNs())}
	for pfn := guestos.PFN(0); pfn < guestos.PFN(sc.view.NumPFNs()); pfn++ {
		snap := sc.view.Snapshot(pfn)
		if snap.MFN == memsim.NilMFN {
			continue
		}
		if snap.Free {
			x.nodes[pfn].flags |= heatFree
		}
		x.insert(pfn, uint8(tierOf(snap.MFN)), sc.score(pfn))
	}
	return x
}

// compareIndexes requires got to equal the reference index want.
func compareIndexes(t *testing.T, step string, got, want *HeatIndex) {
	t.Helper()
	for _, x := range []*HeatIndex{got, want} {
		if err := x.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	if got.Summary() != want.Summary() {
		t.Fatalf("%s: summaries differ", step)
	}
	if got.slots != want.slots {
		t.Errorf("%s: buckets created in a different order", step)
	}
	var kinds [4]bool
	for pfn := range got.nodes {
		g, w := got.nodes[pfn], want.nodes[pfn]
		if g.flags != w.flags || (w.flags&heatInIndex != 0 && (g.bucket != w.bucket || g.tier != w.tier)) {
			t.Fatalf("%s: pfn %d node %+v, want %+v", step, pfn, g, w)
		}
		if w.flags&heatInIndex != 0 {
			kinds[w.tier] = true
			kinds[2] = kinds[2] || w.flags&heatFree != 0
		} else {
			kinds[3] = true
		}
	}
	if kinds != [4]bool{true, true, true, true} {
		t.Fatalf("%s: guest lacks a fast page, slow page, free page or unbacked PFN: %v", step, kinds)
	}
	for _, tier := range []memsim.Tier{memsim.FastMem, memsim.SlowMem} {
		for _, skipFree := range []bool{false, true} {
			for _, max := range []int{1, 100, 1 << 20} {
				comparePFNs(t, step, "descendInto", tier, max,
					got.descendInto(nil, tier, 0, skipFree, max), want.descendInto(nil, tier, 0, skipFree, max))
				comparePFNs(t, step, "ascendInto", tier, max,
					got.ascendInto(nil, tier, 255, skipFree, max), want.ascendInto(nil, tier, 255, skipFree, max))
			}
		}
	}
}
