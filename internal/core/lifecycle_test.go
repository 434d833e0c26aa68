package core

import (
	"math/rand"
	"testing"

	"heteroos/internal/memsim"
	"heteroos/internal/policy"
	"heteroos/internal/vmm"
	"heteroos/internal/workload"
)

// lifecycleVM builds a transient VM config with the given id.
func lifecycleVM(t *testing.T, id vmm.VMID, seed uint64) VMConfig {
	t.Helper()
	w, err := workload.ByName("memlat", workload.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return VMConfig{
		ID: id, Mode: policy.HeteroOSCoordinated(), Workload: w,
		FastPages: 1024, SlowPages: 2048,
		BootFastPages: 256, BootSlowPages: 512,
	}
}

// checkFrameConservation asserts that every allocated machine frame is
// owned by a live VM — i.e. departures returned their frames exactly.
func checkFrameConservation(t *testing.T, sys *System) {
	t.Helper()
	var owned uint64
	for _, inst := range sys.VMs {
		owned += sys.Machine.OwnedByRange(memsim.Owner(inst.ID), memsim.Owner(inst.ID))[0]
	}
	alloc := sys.Machine.AllocatedFrames(memsim.FastMem) + sys.Machine.AllocatedFrames(memsim.SlowMem)
	if alloc != owned {
		t.Fatalf("frame leak: %d frames allocated but only %d owned by live VMs", alloc, owned)
	}
}

// TestLifecycleChurnProperty boots and kills eight transient VMs in a
// deterministic random order, interleaved with epoch steps, checking
// after every operation that the system invariants hold and that the
// free pool refills exactly (no leaked frames, empty P2M on departure).
func TestLifecycleChurnProperty(t *testing.T) {
	sys, err := NewSystem(Config{
		FastFrames: 16384, SlowFrames: 32768,
		Share: ShareDRF, Seed: 11, MaxEpochs: 4096,
		VMs: []VMConfig{lifecycleVM(t, 1, 11)},
	})
	if err != nil {
		t.Fatal(err)
	}
	audit := func(step string) {
		t.Helper()
		if err := sys.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		checkFrameConservation(t, sys)
	}
	audit("initial boot")

	rng := rand.New(rand.NewSource(7))
	toBoot := []vmm.VMID{2, 3, 4, 5, 6, 7, 8, 9}
	var live []vmm.VMID
	for len(toBoot) > 0 || len(live) > 0 {
		bootable := len(toBoot) > 0
		killable := len(live) > 0
		if bootable && (!killable || rng.Intn(2) == 0) {
			i := rng.Intn(len(toBoot))
			id := toBoot[i]
			toBoot = append(toBoot[:i], toBoot[i+1:]...)
			if _, err := sys.BootVM(lifecycleVM(t, id, 11+uint64(id))); err != nil {
				t.Fatalf("boot VM %d: %v", id, err)
			}
			live = append(live, id)
			audit("boot")
		} else {
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			if _, err := sys.ShutdownVM(id); err != nil {
				t.Fatalf("shutdown VM %d: %v", id, err)
			}
			audit("shutdown")
		}
		// Let the machinery run between lifecycle operations.
		for k := 0; k < 1+rng.Intn(3); k++ {
			if _, err := sys.StepEpoch(); err != nil {
				t.Fatalf("step: %v", err)
			}
		}
		audit("step")
	}

	// Only the permanent VM remains; everything else must be returned.
	if got := len(sys.VMs); got != 1 {
		t.Fatalf("live VMs = %d, want 1", got)
	}
	if got := len(sys.Departed); got != 8 {
		t.Fatalf("departed VMs = %d, want 8", got)
	}
	for _, inst := range sys.Departed {
		if n := sys.Machine.OwnedByRange(memsim.Owner(inst.ID), memsim.Owner(inst.ID))[0]; n != 0 {
			t.Fatalf("departed VM %d still owns %d frames", inst.ID, n)
		}
		if err := inst.OS.P2MEmpty(); err != nil {
			t.Fatalf("departed VM %d: %v", inst.ID, err)
		}
	}
}

// TestBootVMRejectsReusedIDs checks that a VM id can never be reused,
// even after its owner departed — results and traces stay unambiguous.
func TestBootVMRejectsReusedIDs(t *testing.T) {
	sys, err := NewSystem(Config{
		FastFrames: 16384, SlowFrames: 32768,
		Share: ShareDRF, Seed: 5,
		VMs: []VMConfig{lifecycleVM(t, 1, 5), lifecycleVM(t, 2, 6)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.BootVM(lifecycleVM(t, 2, 9)); err == nil {
		t.Fatal("booting a live duplicate id succeeded")
	}
	if _, err := sys.ShutdownVM(2); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.BootVM(lifecycleVM(t, 2, 9)); err == nil {
		t.Fatal("reusing a departed VM's id succeeded")
	}
	if _, err := sys.ShutdownVM(2); err == nil {
		t.Fatal("double shutdown succeeded")
	}
	if _, err := sys.ShutdownVM(99); err == nil {
		t.Fatal("shutdown of unknown VM succeeded")
	}
}

// TestDRFReconvergence is the share-policy regression for dynamic
// membership: under FastMem contention (3 x 1024-page spans over 2048
// frames) three VMs hold unequal dominant shares; when one departs
// mid-run the survivors must absorb the freed frames and re-converge to
// equal shares within a few epochs.
func TestDRFReconvergence(t *testing.T) {
	const departAt = 3
	const K = 4 // re-convergence budget in epochs
	var vms []VMConfig
	for id := vmm.VMID(1); id <= 3; id++ {
		w, err := workload.ByName("memlat", workload.Config{Seed: uint64(id)})
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, VMConfig{
			ID: id, Mode: policy.HeteroOSCoordinated(), Workload: w,
			FastPages: 1024, SlowPages: 4096,
			BootFastPages: 256, BootSlowPages: 2048,
		})
	}
	sys, err := NewSystem(Config{FastFrames: 2048, SlowFrames: 16384, Share: ShareDRF, Seed: 3, VMs: vms})
	if err != nil {
		t.Fatal(err)
	}
	shares := func() []float64 {
		var out []float64
		for _, inst := range sys.VMs {
			out = append(out, sys.DRFDominantShare(inst.ID))
		}
		return out
	}
	var preMax float64
	for epoch := 0; epoch <= departAt+K; epoch++ {
		if epoch == departAt {
			if _, err := sys.ShutdownVM(3); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sys.StepEpoch(); err != nil {
			t.Fatal(err)
		}
		if epoch != departAt-1 {
			continue
		}
		pre := shares()
		if len(pre) != 3 {
			t.Fatalf("pre-departure shares malformed: %v", pre)
		}
		for _, sh := range pre {
			if sh <= 0 || sh > 1 {
				t.Fatalf("pre-departure share out of range: %v", pre)
			}
			preMax = max(preMax, sh)
		}
	}
	// Within K epochs of the departure the survivors' shares must be
	// equal, and no survivor may have lost ground.
	post := shares()
	if len(post) != 2 {
		t.Fatalf("post-departure shares malformed: %v", post)
	}
	if gap := post[0] - post[1]; gap > 1e-9 || gap < -1e-9 {
		t.Errorf("shares did not re-converge within %d epochs: %v", K, post)
	}
	for i, sh := range post {
		if sh < preMax {
			t.Errorf("survivor %d share %.4f below pre-departure max %.4f", i, sh, preMax)
		}
	}
	// The freed frames must be redeployed, not stranded.
	if free := sys.Machine.FreeFrames(memsim.FastMem); free != 0 {
		t.Errorf("FastMem free = %d after re-convergence, want 0 (frames redeployed)", free)
	}
}
