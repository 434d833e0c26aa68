package vmm

import (
	"testing"

	"heteroos/internal/guestos"
	"heteroos/internal/memsim"
	"heteroos/internal/sim"
)

func newMachine(fast, slow uint64) *memsim.Machine {
	return memsim.NewMachine(fast, slow, memsim.FastTierSpec(), memsim.SlowTierSpec())
}

// bootGuest boots a guest OS wired to vm.
func bootGuest(t *testing.T, m *VMM, vm *VM, aware bool, pl guestos.PlacementConfig,
	fastMax, slowMax, bootFast, bootSlow uint64) *guestos.OS {
	t.Helper()
	os, err := guestos.New(guestos.Config{
		CPUs: 2, Aware: aware,
		FastMaxPages: fastMax, SlowMaxPages: slowMax,
		BootFastPages: bootFast, BootSlowPages: bootSlow,
		Placement: pl,
		Source:    vm,
		TierOf:    m.Machine.TierOf,
		Seed:      uint64(vm.Spec.ID),
	})
	if err != nil {
		t.Fatal(err)
	}
	vm.Balloon = os
	vm.View = os
	return os
}

// attachIndex wires a heat index between sc and its guest, as core does
// once the scanner's knobs are set; the ranking queries read it.
func attachIndex(sc *Scanner, os *guestos.OS, machine *memsim.Machine) {
	os.SetPageIndexer(NewHeatIndex(sc, machine.TierOf))
}

func TestCreateVMValidation(t *testing.T) {
	m := New(newMachine(64, 64), StaticShare{})
	if _, err := m.CreateVM(VMSpec{ID: 0}); err == nil {
		t.Fatal("id 0 accepted")
	}
	spec := VMSpec{ID: 1}
	spec.Reserved[memsim.FastMem] = 32
	spec.MaxPages[memsim.FastMem] = 16
	if _, err := m.CreateVM(spec); err == nil {
		t.Fatal("max < reserved accepted")
	}
	spec.MaxPages[memsim.FastMem] = 64
	spec.MaxPages[memsim.SlowMem] = 64
	if _, err := m.CreateVM(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateVM(spec); err == nil {
		t.Fatal("duplicate id accepted")
	}
	spec2 := spec
	spec2.ID = 2
	spec2.Reserved[memsim.FastMem] = 40 // 32+40 > 64
	if _, err := m.CreateVM(spec2); err == nil {
		t.Fatal("over-reservation accepted")
	}
}

func TestPopulateRespectsCeiling(t *testing.T) {
	m := New(newMachine(128, 128), StaticShare{})
	spec := VMSpec{ID: 1}
	spec.MaxPages[memsim.FastMem] = 32
	spec.MaxPages[memsim.SlowMem] = 64
	vm, err := m.CreateVM(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := vm.Populate(memsim.FastMem, 100)
	if len(got) != 32 {
		t.Fatalf("granted %d, want ceiling 32", len(got))
	}
	if vm.Granted(memsim.FastMem) != 32 {
		t.Fatal("grant accounting wrong")
	}
	vm.Release(got)
	if vm.Granted(memsim.FastMem) != 0 {
		t.Fatal("release accounting wrong")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPopulateAnySlowFirst(t *testing.T) {
	m := New(newMachine(64, 64), StaticShare{})
	spec := VMSpec{ID: 1}
	spec.MaxPages[memsim.FastMem] = 64
	spec.MaxPages[memsim.SlowMem] = 64
	vm, _ := m.CreateVM(spec)
	got := vm.PopulateAny(80)
	if len(got) != 80 {
		t.Fatalf("granted %d", len(got))
	}
	if vm.Granted(memsim.SlowMem) != 64 || vm.Granted(memsim.FastMem) != 16 {
		t.Fatalf("tier split wrong: %d/%d",
			vm.Granted(memsim.FastMem), vm.Granted(memsim.SlowMem))
	}
}

func TestMaxMinReclaimsOvercommit(t *testing.T) {
	machine := newMachine(512, 2048)
	m := New(machine, MaxMinShare{})
	mk := func(id VMID, resFast, resSlow uint64) *VM {
		spec := VMSpec{ID: id}
		spec.Reserved[memsim.FastMem] = resFast
		spec.Reserved[memsim.SlowMem] = resSlow
		spec.MaxPages[memsim.FastMem] = 512
		spec.MaxPages[memsim.SlowMem] = 2048
		vm, err := m.CreateVM(spec)
		if err != nil {
			t.Fatal(err)
		}
		return vm
	}
	vm1 := mk(1, 128, 512)
	vm2 := mk(2, 128, 512)
	os1 := bootGuest(t, m, vm1, true, guestos.PlacementConfig{Name: "od", OnDemand: true}, 512, 2048, 128, 512)
	_ = bootGuest(t, m, vm2, true, guestos.PlacementConfig{Name: "od", OnDemand: true}, 512, 2048, 128, 512)

	// VM1 overcommits SlowMem far beyond its reservation.
	got := vm1.Populate(memsim.SlowMem, 1400)
	if len(got) == 0 {
		t.Fatal("overcommit denied with free frames")
	}
	if vm1.Granted(memsim.SlowMem) <= 512 {
		t.Fatal("expected overcommit beyond reservation")
	}
	_ = os1
	// VM2 now claims its reservation; max-min must balloon VM1 back.
	before := vm1.Granted(memsim.SlowMem)
	got2 := vm2.Populate(memsim.SlowMem, 900) // within... beyond reservation, but free frames exist?
	_ = got2
	// Force pressure: request down to reservation level.
	for vm2.Granted(memsim.SlowMem) < 512+900 {
		g := vm2.Populate(memsim.SlowMem, 128)
		if len(g) == 0 {
			break
		}
	}
	if vm1.Granted(memsim.SlowMem) >= before && machine.FreeFrames(memsim.SlowMem) == 0 &&
		vm2.Granted(memsim.SlowMem) < vm2.Spec.Reserved[memsim.SlowMem] {
		t.Fatal("max-min failed to reclaim overcommit for a below-reservation VM")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDRFShareBalloonsDominantVM(t *testing.T) {
	machine := newMachine(1024, 2048)
	share, err := NewDRFShare(machine, DefaultDRFWeights())
	if err != nil {
		t.Fatal(err)
	}
	m := New(machine, share)
	mk := func(id VMID) *VM {
		spec := VMSpec{ID: id}
		spec.Reserved[memsim.FastMem] = 128
		spec.Reserved[memsim.SlowMem] = 256
		spec.MaxPages[memsim.FastMem] = 1024
		spec.MaxPages[memsim.SlowMem] = 2048
		vm, err := m.CreateVM(spec)
		if err != nil {
			t.Fatal(err)
		}
		return vm
	}
	vm1, vm2 := mk(1), mk(2)
	pl := guestos.PlacementConfig{Name: "od", OnDemand: true}
	os1 := bootGuest(t, m, vm1, true, pl, 1024, 2048, 128, 256)
	bootGuest(t, m, vm2, true, pl, 1024, 2048, 128, 256)

	// VM1's guest devours SlowMem through real allocations (heap prefers
	// SlowMem under this placement; on-demand extends the reservation).
	vma, _ := os1.AS.Mmap(1700, guestos.KindAnon, guestos.NilFile)
	for i := 0; i < 1700; i++ {
		if _, err := os1.TouchVPN(vma.Start+guestos.VPN(i), 1, 0); err != nil {
			break
		}
	}
	if machine.FreeFrames(memsim.SlowMem) != 0 {
		t.Fatalf("SlowMem not exhausted: %d free", machine.FreeFrames(memsim.SlowMem))
	}
	s1 := share.DominantShare(1)
	s2 := share.DominantShare(2)
	if s1 <= s2 {
		t.Fatalf("shares wrong: %v vs %v", s1, s2)
	}
	// VM2 requests SlowMem: DRF must balloon VM1 (the dominant VM).
	before := vm1.Granted(memsim.SlowMem)
	got := vm2.Populate(memsim.SlowMem, 256)
	if len(got) == 0 {
		t.Fatal("DRF denied a low-share VM while a dominant VM overcommits")
	}
	if vm1.Granted(memsim.SlowMem) >= before {
		t.Fatal("dominant VM was not ballooned")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestScannerHeatAndCosts(t *testing.T) {
	machine := newMachine(256, 1024)
	m := New(machine, StaticShare{})
	spec := VMSpec{ID: 1}
	spec.MaxPages[memsim.FastMem] = 256
	spec.MaxPages[memsim.SlowMem] = 1024
	vm, _ := m.CreateVM(spec)
	// Guest span sized to the SlowMem grant only, so every touched page
	// is SlowMem-backed.
	os := bootGuest(t, m, vm, false, guestos.PlacementConfig{Name: "vmm-excl"}, 0, 1024, 0, 1024)

	vma, _ := os.AS.Mmap(200, guestos.KindAnon, guestos.NilFile)
	for i := 0; i < 200; i++ {
		os.TouchVPN(vma.Start+guestos.VPN(i), 1, 0)
	}
	sc := NewScanner(os, DefaultScanCosts())
	sc.BatchPages = int(os.NumPFNs())
	attachIndex(sc, os, machine)
	res := sc.ScanNext()
	if res.Referenced < 200 {
		t.Fatalf("referenced = %d, want >= 200", res.Referenced)
	}
	if res.CostNs <= 0 {
		t.Fatal("scan must cost time")
	}
	// Second scan with no touches: nothing referenced; heat decays.
	res2 := sc.ScanNext()
	if res2.Referenced != 0 {
		t.Fatalf("stale referenced = %d", res2.Referenced)
	}
	// Touch a subset repeatedly across scans: they become the hottest.
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			os.TouchVPN(vma.Start+guestos.VPN(i), 1, 0)
		}
		sc.ScanNext()
	}
	hot := sc.HottestIn(memsim.SlowMem, 10)
	if len(hot) == 0 {
		t.Fatal("no hot pages found")
	}
	for _, pfn := range hot {
		if !sc.Hot(pfn) {
			t.Fatal("HottestIn returned non-hot page")
		}
	}
}

func TestMigratorPromotesHotPages(t *testing.T) {
	machine := newMachine(256, 1024)
	m := New(machine, StaticShare{})
	spec := VMSpec{ID: 1}
	spec.MaxPages[memsim.FastMem] = 256
	spec.MaxPages[memsim.SlowMem] = 1024
	vm, _ := m.CreateVM(spec)
	// Transparent guest sized so boot backing is all SlowMem.
	os := bootGuest(t, m, vm, false, guestos.PlacementConfig{Name: "vmm-excl"}, 64, 960, 64, 960)

	vma, _ := os.AS.Mmap(100, guestos.KindAnon, guestos.NilFile)
	sc := NewScanner(os, DefaultScanCosts())
	sc.BatchPages = int(os.NumPFNs())
	attachIndex(sc, os, machine)
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			os.TouchVPN(vma.Start+guestos.VPN(i), 1, 0)
		}
		sc.ScanNext()
	}
	mig := NewMigrator(DefaultMigrateCosts())
	st := mig.Rebalance(vm, sc, 100)
	if st.Promoted == 0 {
		t.Fatal("no promotions")
	}
	if st.CostNs <= 0 {
		t.Fatal("migration must cost time")
	}
	// Promoted pages are now FastMem-backed; contents intact.
	fastBacked := 0
	for i := 0; i < 100; i++ {
		pfn, ok := os.AS.Translate(vma.Start + guestos.VPN(i))
		if !ok {
			t.Fatal("mapping lost")
		}
		if os.TierOfPage(pfn) == memsim.FastMem {
			fastBacked++
		}
	}
	if fastBacked != st.Promoted {
		t.Fatalf("fast-backed %d != promoted %d", fastBacked, st.Promoted)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := os.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMigratorDemotesWhenFastFull(t *testing.T) {
	// Tiny FastMem entirely consumed; promoting requires demoting.
	machine := newMachine(16, 1024)
	m := New(machine, StaticShare{})
	spec := VMSpec{ID: 1}
	spec.MaxPages[memsim.FastMem] = 16
	spec.MaxPages[memsim.SlowMem] = 1024
	vm, _ := m.CreateVM(spec)
	os := bootGuest(t, m, vm, false, guestos.PlacementConfig{Name: "vmm-excl"}, 16, 512, 16, 512)

	vma, _ := os.AS.Mmap(200, guestos.KindAnon, guestos.NilFile)
	sc := NewScanner(os, DefaultScanCosts())
	sc.BatchPages = int(os.NumPFNs())
	attachIndex(sc, os, machine)
	// Fill FastMem with pages that then go cold.
	mig := NewMigrator(DefaultMigrateCosts())
	for i := 0; i < 16; i++ {
		os.TouchVPN(vma.Start+guestos.VPN(i), 1, 0)
	}
	sc.ScanNext()
	mig.Rebalance(vm, sc, 16)
	// Now a different set becomes hot while the first goes cold.
	for round := 0; round < 4; round++ {
		for i := 100; i < 140; i++ {
			os.TouchVPN(vma.Start+guestos.VPN(i), 1, 0)
		}
		sc.ScanNext()
	}
	st := mig.Rebalance(vm, sc, 40)
	if st.Promoted == 0 {
		t.Fatal("no promotions under full FastMem")
	}
	if st.Demoted == 0 {
		t.Fatal("expected demotions to make room")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCoordinatedPassPromotesViaGuest(t *testing.T) {
	machine := newMachine(512, 2048)
	m := New(machine, StaticShare{})
	spec := VMSpec{ID: 1}
	spec.MaxPages[memsim.FastMem] = 512
	spec.MaxPages[memsim.SlowMem] = 2048
	vm, _ := m.CreateVM(spec)
	pl := guestos.PlacementConfig{Name: "coord", OnDemand: true, HeteroLRU: true}
	pl.FastKinds[guestos.KindAnon] = true
	pl.FastKinds[guestos.KindPageCache] = true
	pl.FastKinds[guestos.KindNetBuf] = true
	pl.FastKinds[guestos.KindSlab] = true
	// FastMem span leaves headroom beyond boot so promotions can land.
	os := bootGuest(t, m, vm, true, pl, 256, 2048, 128, 1024)

	// Working set exceeds the FastMem boot reservation and span: some
	// pages land in SlowMem.
	vma, _ := os.AS.Mmap(600, guestos.KindAnon, guestos.NilFile)
	for i := 0; i < 600; i++ {
		os.TouchVPN(vma.Start+guestos.VPN(i), 1, 0)
	}
	sc := NewScanner(os, DefaultScanCosts())
	sc.BatchPages = 64 * 1024
	attachIndex(sc, os, machine)
	// Make a slow-resident subset hot across scans; touches happen after
	// each scan so the final pass still sees fresh access bits.
	for round := 0; round < 3; round++ {
		CoordinatedPass(vm, sc, os, 0) // scan-only rounds (no moves)
		for i := 400; i < 500; i++ {
			os.TouchVPN(vma.Start+guestos.VPN(i), 2, 0)
		}
	}
	st := CoordinatedPass(vm, sc, os, 64)
	if st.Scanned == 0 || st.ScanNs <= 0 {
		t.Fatalf("scan did not run: %+v", st)
	}
	if st.Promoted == 0 {
		t.Fatalf("coordinated pass promoted nothing: %+v", st)
	}
	if os.DrainEpoch().Promotions == 0 {
		t.Fatal("guest promotion counter not bumped")
	}
	if err := os.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCoordinatedScanCheaperThanFullScan(t *testing.T) {
	machine := newMachine(512, 4096)
	m := New(machine, StaticShare{})
	spec := VMSpec{ID: 1}
	spec.MaxPages[memsim.FastMem] = 512
	spec.MaxPages[memsim.SlowMem] = 4096
	vm, _ := m.CreateVM(spec)
	pl := guestos.PlacementConfig{Name: "coord", OnDemand: true}
	pl.FastKinds[guestos.KindAnon] = true
	os := bootGuest(t, m, vm, true, pl, 256, 4096, 128, 2048)

	// Small resident anon set inside a big span.
	vma, _ := os.AS.Mmap(300, guestos.KindAnon, guestos.NilFile)
	for i := 0; i < 300; i++ {
		os.TouchVPN(vma.Start+guestos.VPN(i), 1, 0)
	}
	sc := NewScanner(os, DefaultScanCosts())
	sc.BatchPages = int(os.NumPFNs())
	full := sc.ScanNext()
	tracked := sc.ScanTracked(os.TrackingList())
	if tracked.CostNs >= full.CostNs {
		t.Fatalf("tracked scan (%v) not cheaper than full scan (%v)",
			tracked.CostNs, full.CostNs)
	}
	if tracked.Scanned != 300 {
		t.Fatalf("tracked scanned %d pages, want 300", tracked.Scanned)
	}
}

func TestAdaptiveInterval(t *testing.T) {
	a := NewAdaptiveInterval(50*sim.Millisecond, sim.Second, 200*sim.Millisecond)
	a.Update(1000) // prime
	// Misses double: interval must shrink.
	d := a.Update(2000)
	if d >= 200*sim.Millisecond {
		t.Fatalf("interval did not shrink: %v", d)
	}
	if d < 50*sim.Millisecond {
		t.Fatal("clamp violated")
	}
	// Misses collapse: interval must grow.
	d2 := a.Update(200)
	if d2 <= d {
		t.Fatalf("interval did not grow: %v -> %v", d, d2)
	}
	// Extreme spike clamps at Min.
	a.Update(1e12)
	if a.Current() != 50*sim.Millisecond {
		t.Fatalf("min clamp failed: %v", a.Current())
	}
	// Steadily falling misses grow the interval to Max.
	miss := 1e12
	for i := 0; i < 40; i++ {
		miss /= 2
		a.Update(miss)
	}
	if a.Current() != sim.Second {
		t.Fatalf("max clamp failed: %v", a.Current())
	}
}

func TestMigrationBatchCostsTable6(t *testing.T) {
	walk, cp := guestos.MigrationBatchCosts(8 * 1024)
	if walk != 43210 || cp != 25500 {
		t.Fatalf("8K batch: %v/%v", walk, cp)
	}
	walk, cp = guestos.MigrationBatchCosts(128 * 1024)
	if walk != 10250 || cp != 11120 {
		t.Fatalf("128K batch: %v/%v", walk, cp)
	}
	// Interpolation is monotone decreasing.
	w64, c64 := guestos.MigrationBatchCosts(64 * 1024)
	w32, c32 := guestos.MigrationBatchCosts(32 * 1024)
	if !(w32 > w64 && c32 > c64) {
		t.Fatalf("interpolation not monotone: %v/%v vs %v/%v", w32, c32, w64, c64)
	}
	// Clamped outside the measured range.
	wLo, _ := guestos.MigrationBatchCosts(1)
	if wLo != 43210 {
		t.Fatalf("low clamp: %v", wLo)
	}
	wHi, _ := guestos.MigrationBatchCosts(1 << 30)
	if wHi != 10250 {
		t.Fatalf("high clamp: %v", wHi)
	}
}

func TestWriteAwareRankingPrefersStoreHeavyPages(t *testing.T) {
	machine := newMachine(64, 1024)
	m := New(machine, StaticShare{})
	spec := VMSpec{ID: 1}
	spec.MaxPages[memsim.FastMem] = 0
	spec.MaxPages[memsim.SlowMem] = 1024
	vm, _ := m.CreateVM(spec)
	os := bootGuest(t, m, vm, false, guestos.PlacementConfig{Name: "nvm"}, 0, 1024, 0, 1024)

	vma, _ := os.AS.Mmap(16, guestos.KindAnon, guestos.NilFile)
	sc := NewScanner(os, DefaultScanCosts())
	sc.BatchPages = int(os.NumPFNs())
	sc.TrackWrites = true
	sc.WriteBoost = 3 // NVM-like: stores several times dearer than loads
	attachIndex(sc, os, machine)

	// The store-heavy page faults first so it lands on the higher frame
	// (per-CPU lists pop descending): the boosted ranking must overcome
	// the ascending-PFN tiebreak to put it first.
	for round := 0; round < 3; round++ {
		os.TouchVPN(vma.Start, 4, 4)   // half stores
		os.TouchVPN(vma.Start+1, 8, 0) // loads only
		sc.ScanNext()
	}
	writePfn, _ := os.AS.Translate(vma.Start)
	readPfn, _ := os.AS.Translate(vma.Start + 1)
	if writePfn < readPfn {
		t.Skip("frame order assumption violated; tiebreak not exercised")
	}
	if os.ScanWriteHeat(writePfn) == 0 {
		t.Fatal("write heat not tracked")
	}
	if os.ScanWriteHeat(readPfn) != 0 {
		t.Fatal("load-only page accumulated write heat")
	}
	hot := sc.HottestIn(memsim.SlowMem, 2)
	if len(hot) < 2 {
		t.Fatalf("expected both pages hot, got %d", len(hot))
	}
	if hot[0] != writePfn {
		t.Fatalf("store-heavy page should rank first: got pfn %d, want %d", hot[0], writePfn)
	}
	// Without the boost, the tie breaks by PFN (read page first). The
	// index buckets by score, so a knob change needs a rebuild.
	sc.WriteBoost = 0
	sc.Index().Rebuild()
	hot = sc.HottestIn(memsim.SlowMem, 2)
	if hot[0] != readPfn {
		t.Fatalf("unboosted ranking changed unexpectedly: %v", hot)
	}
}

func TestWriteTrackingCostsMore(t *testing.T) {
	machine := newMachine(64, 1024)
	m := New(machine, StaticShare{})
	spec := VMSpec{ID: 1}
	spec.MaxPages[memsim.SlowMem] = 1024
	vm, _ := m.CreateVM(spec)
	os := bootGuest(t, m, vm, false, guestos.PlacementConfig{Name: "nvm"}, 0, 1024, 0, 1024)

	plain := NewScanner(os, DefaultScanCosts())
	plain.BatchPages = 512
	writeAware := NewScanner(os, DefaultScanCosts())
	writeAware.BatchPages = 512
	writeAware.TrackWrites = true
	if !(writeAware.ScanNext().CostNs > plain.ScanNext().CostNs) {
		t.Fatal("write-bit tracking must cost extra (Section 4.3)")
	}
}
