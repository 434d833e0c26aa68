package core

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"heteroos/internal/memsim"
	"heteroos/internal/policy"
	"heteroos/internal/workload"
)

// migHostCfg is a host shape big enough for one memlat VM plus slack.
func migHostCfg(t *testing.T, seed uint64, vms ...VMConfig) Config {
	t.Helper()
	return Config{
		FastFrames: 4096 + 16384 + 2048,
		SlowFrames: 16384 + 2048,
		Seed:       seed,
		MaxEpochs:  1 << 20,
		AllowNoVMs: true,
		VMs:        vms,
	}
}

// migVM builds the canonical migrating VM config: coordinated mode (so
// a scanner and heat index are attached) over a snapshottable workload.
func migVM(t *testing.T, seed uint64) VMConfig {
	t.Helper()
	w, err := workload.ByName("memlat", workload.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return VMConfig{
		ID: 1, Mode: policy.HeteroOSCoordinated(), Workload: w,
		FastPages: 4096, SlowPages: 16384,
	}
}

func stepN(t *testing.T, s *System, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.StepEpoch(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLiveMigrationPreservesState is the headline cross-host guarantee:
// a VM emigrated after a warm-up and immigrated onto a second host
// carries its heat profile exactly (identical HeatIndex summaries), its
// clock and accumulated result, and both hosts stay invariant-clean
// with the source host's frames fully returned.
func TestLiveMigrationPreservesState(t *testing.T) {
	hostA, err := NewSystem(migHostCfg(t, 11, migVM(t, 77)))
	if err != nil {
		t.Fatal(err)
	}
	stepN(t, hostA, 8) // memlat runs ~20 epochs at this shape

	instA, ok := hostA.instByID(1)
	if !ok {
		t.Fatal("VM 1 not live on host A")
	}
	preHeat, ok := instA.HeatIndexSummary()
	if !ok {
		t.Fatal("no heat index attached on host A")
	}
	preClock := instA.Clock.Now()
	preRes := instA.Res
	preGranted := [2]uint64{instA.VM.Granted(memsim.FastMem), instA.VM.Granted(memsim.SlowMem)}

	img, err := hostA.EmigrateVM(1)
	if err != nil {
		t.Fatal(err)
	}
	if img.Pages[memsim.FastMem] != preGranted[0] || img.Pages[memsim.SlowMem] != preGranted[1] {
		t.Fatalf("image footprint %v != granted frames %v", img.Pages, preGranted)
	}
	if len(hostA.VMs) != 0 {
		t.Fatalf("host A still has %d live VMs after emigration", len(hostA.VMs))
	}
	if len(hostA.Departed) != 1 || !hostA.Departed[0].MigratedOut {
		t.Fatal("host A did not retire the ID as a migrated-out stub")
	}
	if hostA.Departed[0].Res != (VMResult{}) {
		t.Error("migrated-out stub carries a non-zero result (would double-count)")
	}
	if err := hostA.CheckInvariants(); err != nil {
		t.Fatalf("host A after emigration: %v", err)
	}
	if owned := hostA.Machine.OwnedBy(memsim.Owner(1)); owned != 0 {
		t.Fatalf("host A still owns %d frames for the emigrated VM", owned)
	}

	// Host B: different host seed, booted empty; the VM arrives with a
	// freshly constructed workload of the same type and seed.
	hostB, err := NewSystem(migHostCfg(t, 22))
	if err != nil {
		t.Fatal(err)
	}
	vc := migVM(t, 77)
	instB, err := hostB.ImmigrateVM(vc, img)
	if err != nil {
		t.Fatal(err)
	}
	if err := hostB.CheckInvariants(); err != nil {
		t.Fatalf("host B after immigration: %v", err)
	}
	postHeat, ok := instB.HeatIndexSummary()
	if !ok {
		t.Fatal("no heat index attached on host B")
	}
	if preHeat != postHeat {
		t.Error("heat profile changed across migration")
	}
	if instB.Clock.Now() != preClock {
		t.Errorf("clock %d != pre-migration %d", instB.Clock.Now(), preClock)
	}
	if !reflect.DeepEqual(instB.Res, preRes) {
		t.Error("accumulated result changed across migration")
	}
	if got := [2]uint64{instB.VM.Granted(memsim.FastMem), instB.VM.Granted(memsim.SlowMem)}; got != preGranted {
		t.Errorf("granted frames %v != pre-migration %v", got, preGranted)
	}

	// The migrated VM must still run to completion on the new host.
	for i := 0; i < 1<<16 && !instB.Done; i++ {
		if _, err := hostB.StepEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if !instB.Done {
		t.Fatal("migrated VM never finished on host B")
	}
	if err := hostB.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLiveMigrationBitIdentical: migrating mid-run must not perturb the
// simulation at all — the migrated VM's final result is bit-identical
// to the same VM run uninterrupted on a single host. Frame identities
// differ across hosts, but nothing in the guest, scanner, or pricing
// path may depend on them.
func TestLiveMigrationBitIdentical(t *testing.T) {
	// Reference: uninterrupted single-host run.
	ref, err := Run(context.Background(), migHostCfg(t, 11, migVM(t, 77)))
	if err != nil {
		t.Fatal(err)
	}
	refRes, ok := ref.VMResultByID(1)
	if !ok {
		t.Fatal("no reference result")
	}

	// Migrated: same VM, moved A→B at epoch 6 and back B→A at epoch 12
	// (memlat runs ~20 epochs at this shape).
	hostA, err := NewSystem(migHostCfg(t, 11, migVM(t, 77)))
	if err != nil {
		t.Fatal(err)
	}
	stepN(t, hostA, 6)
	img, err := hostA.EmigrateVM(1)
	if err != nil {
		t.Fatal(err)
	}
	hostB, err := NewSystem(migHostCfg(t, 99))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := hostB.ImmigrateVM(migVM(t, 77), img)
	if err != nil {
		t.Fatal(err)
	}
	stepN(t, hostB, 6)
	img, err = hostB.EmigrateVM(1)
	if err != nil {
		t.Fatal(err)
	}
	// Return leg: the ID was retired on host A as migrated-out, so the
	// VM may come back.
	inst, err = hostA.ImmigrateVM(migVM(t, 77), img)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1<<16 && !inst.Done; i++ {
		if _, err := hostA.StepEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if !inst.Done {
		t.Fatal("migrated VM never finished")
	}
	if !reflect.DeepEqual(inst.Res, *refRes) {
		t.Errorf("migrated run result differs from uninterrupted run\nmigrated: %+v\nreference: %+v", inst.Res, *refRes)
	}
	for _, s := range []*System{hostA, hostB} {
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMigrationRejections covers the refusal surface: unknown VMs,
// finished VMs, ID collisions, image/config mismatches, and genuinely
// retired IDs staying retired.
func TestMigrationRejections(t *testing.T) {
	hostA, err := NewSystem(migHostCfg(t, 11, migVM(t, 77)))
	if err != nil {
		t.Fatal(err)
	}
	stepN(t, hostA, 8)
	if _, err := hostA.EmigrateVM(9); err == nil {
		t.Error("emigrating an unknown VM succeeded")
	}
	img, err := hostA.EmigrateVM(1)
	if err != nil {
		t.Fatal(err)
	}
	hostB, err := NewSystem(migHostCfg(t, 22))
	if err != nil {
		t.Fatal(err)
	}
	badVC := migVM(t, 77)
	badVC.ID = 2
	if _, err := hostB.ImmigrateVM(badVC, img); err == nil {
		t.Error("immigrating with a mismatched VM id succeeded")
	}
	if _, err := hostB.ImmigrateVM(migVM(t, 77), img); err != nil {
		t.Fatal(err)
	}
	// The ID is now live on B: a second arrival must be refused.
	if _, err := hostB.ImmigrateVM(migVM(t, 77), img); err == nil {
		t.Error("immigrating an already-live VM id succeeded")
	}
	// Run the VM out and shut it down: the ID is then genuinely retired
	// and may not return.
	inst, _ := hostB.instByID(1)
	for i := 0; i < 1<<16 && !inst.Done; i++ {
		if _, err := hostB.StepEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := hostB.EmigrateVM(1); err == nil {
		t.Error("emigrating a finished VM succeeded")
	}
	if _, err := hostB.ShutdownVM(1); err != nil {
		t.Fatal(err)
	}
	if _, err := hostB.ImmigrateVM(migVM(t, 77), img); err == nil {
		t.Error("immigrating onto a retired (shut-down) VM id succeeded")
	}
}

// TestImmigrateFailureLeavesHostUnchanged: a failed return migration
// must leave the host exactly as it was — frames, live VMs, and the
// migrated-out stub that keeps the VM's ID reserved for its return —
// and a clean ImmigrateVM afterwards must still succeed.
func TestImmigrateFailureLeavesHostUnchanged(t *testing.T) {
	cases := []struct {
		name string
		// prepare returns the image to present and undoes any host
		// setup once the failed call has been checked.
		prepare func(t *testing.T, host *System, img *VMImage) (*VMImage, func())
	}{
		{"corrupted image", func(t *testing.T, host *System, img *VMImage) (*VMImage, func()) {
			bad := *img
			bad.Data = append([]byte(nil), img.Data...)
			bad.Data[len(bad.Data)/2] ^= 0xff
			return &bad, func() {}
		}},
		{"footprint exceeds free frames", func(t *testing.T, host *System, img *VMImage) (*VMImage, func()) {
			// A filler VM pins all but 2048 SlowMem frames: the image's
			// FastMem frames adopt, its SlowMem frames cannot, so the
			// abort path must hand the adopted FastMem frames back.
			filler := migVM(t, 5)
			filler.ID = 2
			filler.FastPages, filler.SlowPages = 64, 16384
			filler.BootSlowPages = 16384
			if _, err := host.BootVM(filler); err != nil {
				t.Fatal(err)
			}
			if free := host.Machine.FreeFrames(memsim.SlowMem); free >= img.Pages[memsim.SlowMem] {
				t.Fatalf("filler left %d SlowMem frames free; image needs %d", free, img.Pages[memsim.SlowMem])
			}
			return img, func() {
				if _, err := host.ShutdownVM(2); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			host, err := NewSystem(migHostCfg(t, 11, migVM(t, 77)))
			if err != nil {
				t.Fatal(err)
			}
			stepN(t, host, 8)
			img, err := host.EmigrateVM(1)
			if err != nil {
				t.Fatal(err)
			}
			presented, undo := tc.prepare(t, host, img)

			var free [memsim.NumTiers]uint64
			for tier := memsim.Tier(0); tier < memsim.NumTiers; tier++ {
				free[tier] = host.Machine.FreeFrames(tier)
			}
			live := append([]*VMInstance(nil), host.VMs...)
			departed := append([]*VMInstance(nil), host.Departed...)

			if _, err := host.ImmigrateVM(migVM(t, 77), presented); err == nil {
				t.Fatal("ImmigrateVM succeeded")
			}
			for tier := memsim.Tier(0); tier < memsim.NumTiers; tier++ {
				if got := host.Machine.FreeFrames(tier); got != free[tier] {
					t.Errorf("%v free frames %d != %d before the failed call", tier, got, free[tier])
				}
			}
			if !slices.Equal(host.VMs, live) {
				t.Errorf("live VMs changed: %d now, %d before", len(host.VMs), len(live))
			}
			if !slices.Equal(host.Departed, departed) {
				t.Errorf("departed VMs changed: %d now, %d before", len(host.Departed), len(departed))
			}
			if _, ok := host.VMResultByID(1); !ok {
				t.Error("VM 1's migrated-out stub is gone")
			}
			if _, err := host.BootVM(migVM(t, 77)); err == nil {
				t.Error("BootVM reused the migrated-out VM's ID")
			}
			if err := host.CheckInvariants(); err != nil {
				t.Fatal(err)
			}

			undo()
			if _, err := host.ImmigrateVM(migVM(t, 77), img); err != nil {
				t.Fatalf("clean ImmigrateVM after the failure: %v", err)
			}
			if err := host.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
