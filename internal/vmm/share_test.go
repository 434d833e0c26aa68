package vmm

import (
	"testing"

	"heteroos/internal/memsim"
)

func TestSharePolicyNames(t *testing.T) {
	if (StaticShare{}).Name() != "static" {
		t.Error("static name wrong")
	}
	if (MaxMinShare{}).Name() != "max-min" {
		t.Error("max-min name wrong")
	}
	d, err := NewDRFShare(newMachine(16, 16), DefaultDRFWeights())
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "weighted-DRF" {
		t.Error("DRF name wrong")
	}
}

func TestDefaultDRFWeights(t *testing.T) {
	w := DefaultDRFWeights()
	if w[memsim.FastMem] != 2 || w[memsim.SlowMem] != 1 {
		t.Fatalf("weights = %v, want the paper's 2/1", w)
	}
}

func TestStaticShareBoundedByFreeFrames(t *testing.T) {
	machine := newMachine(8, 8)
	m := New(machine, StaticShare{})
	spec := VMSpec{ID: 1}
	spec.MaxPages[memsim.FastMem] = 64
	spec.MaxPages[memsim.SlowMem] = 64
	vm, _ := m.CreateVM(spec)
	if got := vm.Populate(memsim.FastMem, 100); len(got) != 8 {
		t.Fatalf("granted %d, want all 8 free frames", len(got))
	}
	if got := vm.Populate(memsim.FastMem, 1); len(got) != 0 {
		t.Fatalf("granted %d from an empty tier", len(got))
	}
}

func TestDRFShareDominantShareUnknownVM(t *testing.T) {
	machine := newMachine(16, 16)
	d, _ := NewDRFShare(machine, DefaultDRFWeights())
	if d.DominantShare(&VM{Spec: VMSpec{ID: 42}}) != 0 {
		t.Fatal("a VM never created must report zero share")
	}
	m := New(machine, d)
	vm := drfVM(t, m, 1, 16, 16)
	vm.Release(vm.Populate(memsim.FastMem, 4))
	if err := m.DestroyVM(1); err != nil {
		t.Fatal(err)
	}
	if d.DominantShare(vm) != 0 {
		t.Fatal("a destroyed VM must report zero share")
	}
}

// drfVM creates VM id with the given per-tier ceilings and no
// reservation.
func drfVM(t *testing.T, m *VMM, id VMID, fastMax, slowMax uint64) *VM {
	t.Helper()
	spec := VMSpec{ID: id}
	spec.MaxPages[memsim.FastMem] = fastMax
	spec.MaxPages[memsim.SlowMem] = slowMax
	vm, err := m.CreateVM(spec)
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

// drfGrant populates exactly fast and slow frames into vm.
func drfGrant(t *testing.T, vm *VM, fast, slow uint64) {
	t.Helper()
	if got := vm.Populate(memsim.FastMem, fast); uint64(len(got)) != fast {
		t.Fatalf("VM %d granted %d FastMem frames, want %d", vm.Spec.ID, len(got), fast)
	}
	if got := vm.Populate(memsim.SlowMem, slow); uint64(len(got)) != slow {
		t.Fatalf("VM %d granted %d SlowMem frames, want %d", vm.Spec.ID, len(got), slow)
	}
}

func TestNewDRFShareValidation(t *testing.T) {
	for _, w := range [][memsim.NumTiers]float64{{0, 1}, {2, -1}} {
		if _, err := NewDRFShare(newMachine(16, 16), w); err == nil {
			t.Fatalf("weights %v accepted", w)
		}
	}
}

func TestDRFGrantAndShares(t *testing.T) {
	// The paper's weights (FastMem 2, SlowMem 1) over 4 FastMem and 8
	// SlowMem frames.
	machine := newMachine(4, 8)
	d, _ := NewDRFShare(machine, DefaultDRFWeights())
	m := New(machine, d)
	vm1 := drfVM(t, m, 1, 4, 8)
	vm2 := drfVM(t, m, 2, 4, 8)
	drfGrant(t, vm1, 1, 4)
	// VM 1: fast share 2*1/4 = 0.5, slow share 1*4/8 = 0.5.
	if s := d.DominantShare(vm1); s != 0.5 {
		t.Fatalf("dominant share = %v, want 0.5", s)
	}
	drfGrant(t, vm2, 3, 4)
	// VM 2: fast 2*3/4 = 1.5 dominant over slow 0.5.
	if s := d.DominantShare(vm2); s != 1.5 {
		t.Fatalf("dominant share = %v, want the FastMem share 1.5", s)
	}
	// FastMem is exhausted, and no VM without a balloon driver can be
	// made to give frames back.
	if got := vm1.Populate(memsim.FastMem, 1); len(got) != 0 {
		t.Fatalf("granted %d frames from an exhausted tier", len(got))
	}
}

func TestDRFWeightsChangeDominance(t *testing.T) {
	// Small FastMem would never be dominant unweighted; the paper's
	// weight 2 makes modest FastMem holdings register. The same holding
	// of 1 FastMem and 24 SlowMem frames is FastMem-dominant weighted
	// (2*1/4 = 0.5 over 24/64 = 0.375) and SlowMem-dominant unweighted
	// (24/64 = 0.375 over 1/4 = 0.25).
	for _, tc := range []struct {
		weights [memsim.NumTiers]float64
		want    float64
	}{{[memsim.NumTiers]float64{2, 1}, 0.5}, {[memsim.NumTiers]float64{1, 1}, 0.375}} {
		machine := newMachine(4, 64)
		d, err := NewDRFShare(machine, tc.weights)
		if err != nil {
			t.Fatal(err)
		}
		vm := drfVM(t, New(machine, d), 1, 4, 64)
		drfGrant(t, vm, 1, 24)
		if s := d.DominantShare(vm); s != tc.want {
			t.Fatalf("weights %v: dominant share = %v, want %v", tc.weights, s, tc.want)
		}
	}
}

func TestDRFCouplesResources(t *testing.T) {
	// The Figure 13 failure: two resources arbitrated independently
	// (single-resource max-min) pick a SlowMem victim by SlowMem holdings
	// alone. DRF couples them: Metis's FastMem holding makes its dominant
	// share the larger, so when SlowMem runs short DRFShare balloons
	// Metis, though GraphChi holds more SlowMem.
	machine := newMachine(8, 16)
	d, _ := NewDRFShare(machine, DefaultDRFWeights())
	m := New(machine, d)
	graphChi := drfVM(t, m, 1, 8, 16)
	metis := drfVM(t, m, 2, 8, 16)
	asker := drfVM(t, m, 3, 8, 16)
	// GraphChi: fast 2*1/8 = 0.25, slow 8/16 = 0.5.
	drfGrant(t, graphChi, 1, 8)
	// Metis: fast 2*3/8 = 0.75, slow 6/16 = 0.375.
	drfGrant(t, metis, 3, 6)
	if s1, s2 := d.DominantShare(graphChi), d.DominantShare(metis); s1 != 0.5 || s2 != 0.75 {
		t.Fatalf("dominant shares = %v, %v, want 0.5, 0.75", s1, s2)
	}
	gb := &recordingBalloon{vm: graphChi}
	mb := &recordingBalloon{vm: metis}
	graphChi.Balloon, metis.Balloon = gb, mb
	// SlowMem has 2 frames left; a third VM asks for 4.
	asker.Populate(memsim.SlowMem, 4)
	if !mb.primed || gb.primed {
		t.Fatalf("ballooned GraphChi %v, Metis %v: want Metis only", gb.primed, mb.primed)
	}
	if mb.minTarget != 4 {
		t.Fatalf("Metis ballooned to %d SlowMem frames, want 6-2 = 4", mb.minTarget)
	}
}

func TestDRFBalloonRespectsReservationFloor(t *testing.T) {
	machine := newMachine(64, 256)
	share, _ := NewDRFShare(machine, DefaultDRFWeights())
	m := New(machine, share)
	mk := func(id VMID, resSlow uint64) *VM {
		spec := VMSpec{ID: id}
		spec.Reserved[memsim.SlowMem] = resSlow
		spec.MaxPages[memsim.FastMem] = 64
		spec.MaxPages[memsim.SlowMem] = 256
		vm, err := m.CreateVM(spec)
		if err != nil {
			t.Fatal(err)
		}
		return vm
	}
	victim := mk(1, 128)
	asker := mk(2, 64)
	// The victim's guest holds its reservation entirely as free pages.
	vb := &recordingBalloon{vm: victim}
	victim.Balloon = vb
	victim.Populate(memsim.SlowMem, 256) // all of SlowMem
	// Asker requests SlowMem: DRF balloons the dominant victim but the
	// target passed to the balloon never dips below the reservation.
	asker.Populate(memsim.SlowMem, 64)
	if vb.minTarget < victim.Spec.Reserved[memsim.SlowMem] {
		t.Fatalf("balloon target %d dipped below reservation %d",
			vb.minTarget, victim.Spec.Reserved[memsim.SlowMem])
	}
}

// recordingBalloon releases frames like a guest with everything free,
// recording the lowest target it was asked for.
type recordingBalloon struct {
	vm        *VM
	minTarget uint64
	primed    bool
}

func (b *recordingBalloon) BalloonTarget(t memsim.Tier, target uint64) uint64 {
	if !b.primed || target < b.minTarget {
		b.minTarget = target
		b.primed = true
	}
	// The policy only consults the return value; frame movement is
	// covered by the integration tests. Report the would-be release.
	if have := b.vm.Granted(t); have > target {
		return have - target
	}
	return 0
}
