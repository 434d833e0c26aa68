package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"heteroos/internal/memsim"
	"heteroos/internal/policy"
	"heteroos/internal/snapshot"
	"heteroos/internal/vmm"
	"heteroos/internal/workload"
)

// snapshotConfig builds a multi-VM DRF system with enough machinery
// enabled (scanner, adaptive interval, trace log) to exercise every
// checkpoint section.
func snapshotConfig(t *testing.T, backend memsim.Builder) Config {
	t.Helper()
	return Config{
		FastFrames: 16384, SlowFrames: 32768,
		Share: ShareDRF, Seed: 42, MaxEpochs: 4096, Trace: true,
		Backend: backend,
		VMs: []VMConfig{
			lifecycleVM(t, 1, 42),
			lifecycleVM(t, 2, 43),
		},
	}
}

// checkpointBytes serializes sys and returns the raw snapshot.
func checkpointBytes(t *testing.T, sys *System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	return buf.Bytes()
}

// TestSnapshotRoundTripParity is the gold-standard determinism check:
// run a system to epoch k and checkpoint; continue it to epoch k+m;
// restore a second system from the checkpoint and step it m epochs.
// Both must agree on every VMResult and — stronger — a second
// checkpoint of each must be byte-identical, proving the entire
// mutable state (not just the outputs) reconverged.
func TestSnapshotRoundTripParity(t *testing.T) {
	for _, backend := range []struct {
		name  string
		build memsim.Builder
	}{
		{"analytic", nil},
	} {
		t.Run(backend.name, func(t *testing.T) {
			sys, err := NewSystem(snapshotConfig(t, backend.build))
			if err != nil {
				t.Fatal(err)
			}
			const k, m = 6, 5
			for i := 0; i < k; i++ {
				if _, err := sys.StepEpoch(); err != nil {
					t.Fatalf("epoch %d: %v", i, err)
				}
			}
			// Mid-run churn so the checkpoint carries a departed VM and a
			// mid-run boot (clock offset from the lockstep founders).
			if _, err := sys.ShutdownVM(2); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.BootVM(lifecycleVM(t, 3, 44)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				if _, err := sys.StepEpoch(); err != nil {
					t.Fatalf("epoch %d: %v", k+i, err)
				}
			}
			snapBytes := checkpointBytes(t, sys)

			// Restore: the config describes the VM set live at checkpoint.
			cfg := snapshotConfig(t, backend.build)
			cfg.VMs = []VMConfig{lifecycleVM(t, 1, 42), lifecycleVM(t, 3, 44)}
			rd, err := snapshot.Open(bytes.NewReader(snapBytes))
			if err != nil {
				t.Fatal(err)
			}
			restored, err := RestoreSystem(rd, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.CheckInvariants(); err != nil {
				t.Fatalf("restored invariants: %v", err)
			}
			if restored.Epochs() != sys.Epochs() {
				t.Fatalf("restored epochs = %d, want %d", restored.Epochs(), sys.Epochs())
			}

			// A checkpoint of the freshly restored system must reproduce
			// the original snapshot byte for byte.
			if rebytes := checkpointBytes(t, restored); !bytes.Equal(rebytes, snapBytes) {
				t.Fatalf("re-checkpoint of restored system differs from original (%d vs %d bytes)",
					len(rebytes), len(snapBytes))
			}

			// Continue both systems in lockstep; state must stay identical.
			for i := 0; i < m; i++ {
				if _, err := sys.StepEpoch(); err != nil {
					t.Fatalf("original epoch +%d: %v", i, err)
				}
				if _, err := restored.StepEpoch(); err != nil {
					t.Fatalf("restored epoch +%d: %v", i, err)
				}
			}
			if err := restored.CheckInvariants(); err != nil {
				t.Fatalf("restored invariants after continue: %v", err)
			}
			for _, id := range []int{1, 2, 3} {
				a, okA := sys.VMResultByID(vmm.VMID(id))
				b, okB := restored.VMResultByID(vmm.VMID(id))
				if !okA || !okB {
					t.Fatalf("VM %d results missing (orig %v, restored %v)", id, okA, okB)
				}
				if !reflect.DeepEqual(a, b) {
					t.Errorf("VM %d results diverge:\n orig     %+v\n restored %+v", id, *a, *b)
				}
			}
			if a, b := checkpointBytes(t, sys), checkpointBytes(t, restored); !bytes.Equal(a, b) {
				t.Fatal("checkpoints diverge after continuing both runs")
			}
		})
	}
}

// TestSnapshotConfigMismatch checks that restoring against a config
// that differs from the checkpointed one fails loudly instead of
// silently diverging.
func TestSnapshotConfigMismatch(t *testing.T) {
	sys, err := NewSystem(snapshotConfig(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.StepEpoch(); err != nil {
		t.Fatal(err)
	}
	snapBytes := checkpointBytes(t, sys)

	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"seed", func(c *Config) { c.Seed = 7 }},
		{"frames", func(c *Config) { c.FastFrames = 8192 }},
		{"share", func(c *Config) { c.Share = ShareStatic }},
		{"backend", func(c *Config) {
			c.Backend = func(m *memsim.Machine, opts ...memsim.Option) memsim.Backend {
				return renamedBackend{memsim.NewAnalytic(m, opts...)}
			}
		}},
		{"vm-set", func(c *Config) { c.VMs = c.VMs[:1] }},
		{"vm-order", func(c *Config) { c.VMs[0], c.VMs[1] = c.VMs[1], c.VMs[0] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := snapshotConfig(t, nil)
			tc.mutate(&cfg)
			rd, err := snapshot.Open(bytes.NewReader(snapBytes))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RestoreSystem(rd, cfg); err == nil {
				t.Fatal("restore with mismatched config succeeded")
			}
		})
	}
}

// renamedBackend prices exactly like the analytic engine but reports
// another Name, so only the pricing-identity check can reject it.
type renamedBackend struct{ memsim.Backend }

func (renamedBackend) Name() string { return "renamed" }

// TestSnapshotRejectsBackendSection re-emits a valid checkpoint section
// by section and checks that adding a "backend" section — which no
// writer produces, since the pricing model carries no run state — makes
// restore fail, while the plain copy restores.
func TestSnapshotRejectsBackendSection(t *testing.T) {
	sys, err := NewSystem(snapshotConfig(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.StepEpoch(); err != nil {
		t.Fatal(err)
	}
	orig, err := snapshot.Open(bytes.NewReader(checkpointBytes(t, sys)))
	if err != nil {
		t.Fatal(err)
	}
	rewrite := func(extra bool) *snapshot.Reader {
		var buf bytes.Buffer
		sw, err := snapshot.NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range orig.Sections() {
			raw, _ := orig.Raw(name)
			if err := sw.Section(name, func(e *snapshot.Encoder) {
				for _, b := range raw {
					e.U8(b)
				}
			}); err != nil {
				t.Fatal(err)
			}
			if extra && name == "machine" {
				if err := sw.Section("backend", func(e *snapshot.Encoder) { e.U64(0) }); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		rd, err := snapshot.Open(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return rd
	}
	if _, err := RestoreSystem(rewrite(false), snapshotConfig(t, nil)); err != nil {
		t.Fatalf("re-emitted snapshot without a backend section: %v", err)
	}
	_, err = RestoreSystem(rewrite(true), snapshotConfig(t, nil))
	if err == nil || !strings.Contains(err.Error(), "backend section") {
		t.Fatalf("restore with a backend section: err = %v, want a backend-section rejection", err)
	}
}

// TestSnapshotCorruptionDetected flips one byte in the middle of a
// snapshot and expects the checksum to catch it at open time.
func TestSnapshotCorruptionDetected(t *testing.T) {
	sys, err := NewSystem(snapshotConfig(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.StepEpoch(); err != nil {
		t.Fatal(err)
	}
	snapBytes := checkpointBytes(t, sys)
	snapBytes[len(snapBytes)/2] ^= 0x40
	if _, err := snapshot.Open(bytes.NewReader(snapBytes)); err == nil {
		t.Fatal("corrupted snapshot opened cleanly")
	}
}

// TestSnapshotEveryWorkloadRoundTrips runs each registered workload in
// a small system, checkpoints mid-run, and verifies the restored
// system re-checkpoints byte-identically and finishes with identical
// results — covering every app's SnapshotState/RestoreState pair.
func TestSnapshotEveryWorkloadRoundTrips(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			mk := func() *System {
				w, err := workload.ByName(name, workload.Config{Seed: 99})
				if err != nil {
					t.Fatal(err)
				}
				sys, err := NewSystem(Config{
					FastFrames: 16384, SlowFrames: 32768,
					Seed: 99, MaxEpochs: 64,
					VMs: []VMConfig{{
						ID: 1, Mode: policy.HeteroOSCoordinated(), Workload: w,
						FastPages: 2048, SlowPages: 4096,
					}},
				})
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}
			sys := mk()
			for i := 0; i < 4; i++ {
				if _, err := sys.StepEpoch(); err != nil {
					t.Fatal(err)
				}
			}
			snapBytes := checkpointBytes(t, sys)
			rd, err := snapshot.Open(bytes.NewReader(snapBytes))
			if err != nil {
				t.Fatal(err)
			}
			restored, err := RestoreSystem(rd, mk().Cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rebytes := checkpointBytes(t, restored); !bytes.Equal(rebytes, snapBytes) {
				t.Fatal("re-checkpoint differs from original")
			}
			for i := 0; i < 4; i++ {
				if _, err := sys.StepEpoch(); err != nil {
					t.Fatal(err)
				}
				if _, err := restored.StepEpoch(); err != nil {
					t.Fatal(err)
				}
			}
			a, _ := sys.VMResultByID(1)
			b, _ := restored.VMResultByID(1)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("results diverge:\n orig     %+v\n restored %+v", *a, *b)
			}
		})
	}
}

// TestSnapshotVMMExclusive pins the checkpoint/restore contract for the
// one mode outside TestSnapshotRoundTripParity's coverage: a
// VMM-exclusive VM, whose scanner walks the whole guest span. After
// restore, ten lockstep epochs must keep the full serialized state
// byte-identical; on divergence the test names the first checkpoint
// section to differ.
func TestSnapshotVMMExclusive(t *testing.T) {
	mk := func() *System {
		w, err := workload.ByName("writeheavy", workload.Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystem(Config{
			FastFrames: 8192, SlowFrames: 32768,
			Seed: 7, MaxEpochs: 4096,
			VMs: []VMConfig{{
				ID: 4, Mode: policy.VMMExclusive(), Workload: w,
				FastPages: 2048, SlowPages: 8192,
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sys := mk()
	for i := 0; i < 20; i++ {
		if _, err := sys.StepEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	snapBytes := checkpointBytes(t, sys)
	rd, err := snapshot.Open(bytes.NewReader(snapBytes))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSystem(rd, mk().Cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := sys.StepEpoch(); err != nil {
			t.Fatal(err)
		}
		if _, err := restored.StepEpoch(); err != nil {
			t.Fatal(err)
		}
		a, b := checkpointBytes(t, sys), checkpointBytes(t, restored)
		if bytes.Equal(a, b) {
			continue
		}
		ra, _ := snapshot.Open(bytes.NewReader(a))
		rb, _ := snapshot.Open(bytes.NewReader(b))
		for _, name := range ra.Sections() {
			ba, _ := ra.Raw(name)
			bb, _ := rb.Raw(name)
			if !bytes.Equal(ba, bb) {
				off := 0
				for off < len(ba) && off < len(bb) && ba[off] == bb[off] {
					off++
				}
				t.Errorf("epoch +%d: section %q differs at offset %d (%d vs %d bytes)",
					i+1, name, off, len(ba), len(bb))
			}
		}
		t.FailNow()
	}
}
