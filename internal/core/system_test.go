package core

import (
	"context"
	"strings"
	"testing"

	"heteroos/internal/memsim"
	"heteroos/internal/policy"
	"heteroos/internal/vmm"
	"heteroos/internal/workload"
)

func microVM(t *testing.T, mode policy.Mode, seed uint64) VMConfig {
	t.Helper()
	w, err := workload.ByName("memlat", workload.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return VMConfig{
		ID: 1, Mode: mode, Workload: w,
		FastPages: 4096, SlowPages: 16384,
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewSystem(Config{FastFrames: 64, SlowFrames: 64}); err == nil {
		t.Fatal("no-VM config accepted")
	}
	if _, err := NewSystem(Config{
		FastFrames: 64, SlowFrames: 64, Share: "bogus",
		VMs: []VMConfig{{ID: 1}},
	}); err == nil {
		t.Fatal("bogus share policy accepted")
	}
	if _, err := NewSystem(Config{
		FastFrames: 1 << 16, SlowFrames: 1 << 16,
		VMs: []VMConfig{{ID: 1, Mode: policy.HeapOD()}},
	}); err == nil {
		t.Fatal("VM without workload accepted")
	}
	// Frame numbers are stored in 32 bits, so the machine is bounded by
	// memsim.MaxFrames (checked on Validate alone: building such a
	// machine would allocate gigabytes).
	for _, span := range [][2]uint64{{memsim.MaxFrames, 1}, {1, memsim.MaxFrames}, {^uint64(0), 2}} {
		c := Config{FastFrames: span[0], SlowFrames: span[1], AllowNoVMs: true}
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "MaxFrames") {
			t.Errorf("machine %d+%d frames: err %v, want a MaxFrames error", span[0], span[1], err)
		}
	}
	c := Config{FastFrames: memsim.MaxFrames - 1, SlowFrames: 1, AllowNoVMs: true}
	if err := c.Validate(); err != nil {
		t.Errorf("machine of exactly MaxFrames frames rejected: %v", err)
	}
}

func TestDefaultsApplied(t *testing.T) {
	var c Config
	c.applyDefaults()
	if c.Share != ShareStatic || c.MaxEpochs != 4096 {
		t.Error("basic defaults missing")
	}
	if c.CostScale != workload.DefaultScale {
		t.Error("cost scale default missing")
	}
	if c.ScanBatchPages != 32*1024/int(c.CostScale) {
		t.Errorf("scan batch default = %d", c.ScanBatchPages)
	}
}

func TestEveryModeRunsMemlat(t *testing.T) {
	for _, mode := range policy.All() {
		mode := mode
		t.Run(mode.Name, func(t *testing.T) {
			sys, err := Run(context.Background(), Config{
				FastFrames: 4096 + 16384 + 1024,
				SlowFrames: 16384 + 1024,
				Seed:       3,
				VMs:        []VMConfig{microVM(t, mode, 3)},
			})
			if err != nil {
				t.Fatal(err)
			}
			res := &sys.VMs[0].Res
			if res.SimTime <= 0 || res.Epochs == 0 || res.Instr == 0 {
				t.Fatalf("degenerate result: %+v", res)
			}
			if err := sys.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			// Mode-shape assertions.
			switch {
			case mode.NoFastMem:
				if res.Misses[memsim.FastMem] != 0 {
					t.Error("SlowMem-only produced FastMem misses")
				}
			case mode.AllFastMem:
				if res.Misses[memsim.SlowMem] != 0 {
					t.Error("FastMem-only produced SlowMem misses")
				}
			}
			if mode.Migration == policy.MigrateVMMExclusive && res.ScanPasses == 0 {
				t.Error("VMM-exclusive never scanned")
			}
		})
	}
}

func TestBaselineOrderingMemlat(t *testing.T) {
	run := func(mode policy.Mode) float64 {
		sys, err := Run(context.Background(), Config{
			FastFrames: 4096 + 16384 + 1024,
			SlowFrames: 16384 + 1024,
			Seed:       4,
			VMs:        []VMConfig{microVM(t, mode, 4)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys.VMs[0].Res.RuntimeSeconds()
	}
	fast := run(policy.FastMemOnly())
	slow := run(policy.SlowMemOnly())
	if !(fast < slow/2) {
		t.Fatalf("fast (%v) should far undercut slow (%v)", fast, slow)
	}
}

func TestMultiVMLockstepAndIsolation(t *testing.T) {
	w1, _ := workload.ByName("memlat", workload.Config{Seed: 5})
	w2, _ := workload.ByName("stream", workload.Config{Seed: 6})
	sys, err := Run(context.Background(), Config{
		FastFrames: 32768, SlowFrames: 65536,
		Share: ShareMaxMin, Seed: 5,
		VMs: []VMConfig{
			{ID: 1, Mode: policy.HeteroOSLRU(), Workload: w1, FastPages: 4096, SlowPages: 16384},
			{ID: 2, Mode: policy.HeapOD(), Workload: w2, FastPages: 4096, SlowPages: 16384},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r1, ok1 := sys.VMResultByID(1)
	r2, ok2 := sys.VMResultByID(2)
	if !ok1 || !ok2 {
		t.Fatal("missing results")
	}
	if _, ok := sys.VMResultByID(9); ok {
		t.Fatal("bogus VM id resolved")
	}
	if r1.Epochs == 0 || r2.Epochs == 0 {
		t.Fatal("a VM did not run")
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDRFShareExposed(t *testing.T) {
	w, _ := workload.ByName("memlat", workload.Config{Seed: 7})
	sys, err := Run(context.Background(), Config{
		FastFrames: 32768, SlowFrames: 65536,
		Share: ShareDRF, Seed: 7,
		VMs: []VMConfig{{ID: 1, Mode: policy.HeteroOSCoordinated(), Workload: w,
			FastPages: 4096, SlowPages: 16384}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.DRFDominantShare(1) <= 0 {
		t.Fatal("DRF dominant share not tracked")
	}
	// Non-DRF systems report zero.
	sys2, _ := NewSystem(Config{
		FastFrames: 32768, SlowFrames: 65536, Seed: 7,
		VMs: []VMConfig{microVM(t, policy.HeapOD(), 7)},
	})
	if sys2.DRFDominantShare(1) != 0 {
		t.Fatal("static share should report zero dominant share")
	}
}

func TestDeterministicResults(t *testing.T) {
	run := func() VMResult {
		sys, err := Run(context.Background(), Config{
			FastFrames: 4096 + 16384 + 1024,
			SlowFrames: 16384 + 1024,
			Seed:       11,
			VMs:        []VMConfig{microVM(t, policy.HeteroOSCoordinated(), 11)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys.VMs[0].Res
	}
	a, b := run(), run()
	if a.SimTime != b.SimTime || a.Misses != b.Misses || a.Demotions != b.Demotions {
		t.Fatalf("nondeterministic: %v/%v vs %v/%v", a.SimTime, a.Demotions, b.SimTime, b.Demotions)
	}
}

func TestVMResultDerivedMetrics(t *testing.T) {
	r := VMResult{}
	if r.MissRatio() != 0 || r.Throughput(10) != 0 {
		t.Fatal("zero-value guards broken")
	}
	r.FastAllocRequests = 10
	r.FastAllocMisses = 3
	if r.MissRatio() != 0.3 {
		t.Fatalf("miss ratio = %v", r.MissRatio())
	}
	r.Epochs = 4
	r.SimTime = 2_000_000_000 // 2s
	if got := r.Throughput(100); got != 200 {
		t.Fatalf("throughput = %v", got)
	}
	r.SimTime = 1_500_000_000
	if got := r.RuntimeSeconds(); got != 1.5 {
		t.Fatalf("runtime = %v", got)
	}
}

func TestMaxEpochsGuard(t *testing.T) {
	w, _ := workload.ByName("memlat", workload.Config{Seed: 1})
	_, err := Run(context.Background(), Config{
		FastFrames: 32768, SlowFrames: 65536,
		MaxEpochs: 3, // memlat needs 20
		VMs: []VMConfig{{ID: 1, Mode: policy.HeapOD(), Workload: w,
			FastPages: 4096, SlowPages: 16384}},
	})
	if err == nil {
		t.Fatal("epoch-starved run did not error")
	}
}

func TestNoFastMemShapesSpans(t *testing.T) {
	w, _ := workload.ByName("memlat", workload.Config{Seed: 1})
	sys, err := NewSystem(Config{
		FastFrames: 32768, SlowFrames: 65536, Seed: 1,
		VMs: []VMConfig{{ID: 1, Mode: policy.SlowMemOnly(), Workload: w,
			FastPages: 4096, SlowPages: 16384}},
	})
	if err != nil {
		t.Fatal(err)
	}
	vmh, _ := sys.VMM.VMByID(1)
	if vmh.Spec.MaxPages[memsim.FastMem] != 0 {
		t.Fatal("NoFastMem did not zero the FastMem span")
	}
	if vmh.Spec.MaxPages[memsim.SlowMem] != 16384 {
		t.Fatal("SlowMem span wrong")
	}
	_ = vmm.VMID(1)
}

func TestBareMetalNotSlowerThanVirtualized(t *testing.T) {
	run := func(mode policy.Mode) float64 {
		w, _ := workload.ByName("GraphChi", workload.Config{Seed: 5})
		slow := workload.Config{}.Pages(8 * workload.GiB)
		sys, err := Run(context.Background(), Config{
			FastFrames: slow/4 + slow + 8192,
			SlowFrames: slow + 8192,
			Seed:       5,
			VMs: []VMConfig{{ID: 1, Mode: mode, Workload: w,
				FastPages: slow / 4, SlowPages: slow}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys.VMs[0].Res.RuntimeSeconds()
	}
	virt := run(policy.HeteroOSCoordinated())
	bare := run(policy.HeteroOSBareMetal())
	// Same mechanisms minus the hypervisor boundary: bare metal can only
	// be equal or faster (Section 4.3's portability claim).
	if bare > virt*1.01 {
		t.Fatalf("bare metal (%v) slower than virtualized (%v)", bare, virt)
	}
}

func TestMultiVMInvariantsAcrossPolicies(t *testing.T) {
	// System-level property: any pairing of management modes and share
	// policies leaves machine accounting, guest invariants, and VM grant
	// bookkeeping intact after a contended multi-VM run.
	modes := []policy.Mode{policy.HeapIOSlabOD(), policy.HeteroOSLRU(),
		policy.VMMExclusive(), policy.HeteroOSCoordinated()}
	shares := []ShareKind{ShareStatic, ShareMaxMin, ShareDRF}
	for _, m1 := range modes {
		for _, share := range shares {
			m1, share := m1, share
			t.Run(m1.Name+"/"+string(share), func(t *testing.T) {
				w1, _ := workload.ByName("memlat", workload.Config{Seed: 8})
				w2, _ := workload.ByName("stream", workload.Config{Seed: 9})
				_, err := Run(context.Background(), Config{
					FastFrames: 12288, SlowFrames: 40960,
					Share: share, Seed: 8,
					VMs: []VMConfig{
						{ID: 1, Mode: m1, Workload: w1, FastPages: 4096, SlowPages: 16384},
						{ID: 2, Mode: policy.HeteroOSCoordinated(), Workload: w2,
							FastPages: 4096, SlowPages: 16384},
					},
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestClockAccountingIdentity(t *testing.T) {
	// DESIGN.md invariant: the virtual clock is exactly the sum of the
	// per-epoch components, and the trace reproduces the same total.
	w, _ := workload.ByName("GraphChi", workload.Config{Seed: 13})
	slow := workload.Config{}.Pages(8 * workload.GiB)
	sys, err := Run(context.Background(), Config{
		FastFrames: slow/4 + slow + 8192,
		SlowFrames: slow + 8192,
		Seed:       13,
		Trace:      true,
		VMs: []VMConfig{{ID: 1, Mode: policy.HeteroOSCoordinated(), Workload: w,
			FastPages: slow / 4, SlowPages: slow}},
	})
	if err != nil {
		t.Fatal(err)
	}
	inst := sys.VMs[0]
	r := inst.Res
	if sum := r.CPUTime + r.MemTime[memsim.FastMem] + r.MemTime[memsim.SlowMem] + r.OSTime; sum != r.SimTime {
		t.Fatalf("component sum %v != runtime %v", sum, r.SimTime)
	}
	var traceSum int64
	for _, tr := range inst.TraceLog {
		traceSum += int64(tr.Total)
		if tr.Total != tr.CPU+tr.MemFast+tr.MemSlow+tr.OS {
			t.Fatalf("epoch %d components do not sum", tr.Epoch)
		}
	}
	if traceSum != int64(r.SimTime) {
		t.Fatalf("trace sum %v != runtime %v", traceSum, r.SimTime)
	}
	if len(inst.TraceLog) != r.Epochs {
		t.Fatalf("trace has %d entries for %d epochs", len(inst.TraceLog), r.Epochs)
	}
}
