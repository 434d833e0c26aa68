package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
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
		name, want string
		mutate     func(*Config)
	}{
		{"seed", "snapshot seed", func(c *Config) { c.Seed = 7 }},
		{"frames", "snapshot machine", func(c *Config) { c.FastFrames = 8192 }},
		{"share", "share policy", func(c *Config) { c.Share = ShareStatic }},
		{"backend", "backend", func(c *Config) {
			c.Backend = func(m *memsim.Machine, opts ...memsim.Option) memsim.Backend {
				return renamedBackend{memsim.NewAnalytic(m, opts...)}
			}
		}},
		{"vm-set", "live VMs", func(c *Config) { c.VMs = c.VMs[:1] }},
		{"vm-order", "live VMs", func(c *Config) { c.VMs[0], c.VMs[1] = c.VMs[1], c.VMs[0] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := snapshotConfig(t, nil)
			tc.mutate(&cfg)
			rd, err := snapshot.Open(bytes.NewReader(snapBytes))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RestoreSystem(rd, cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore with mismatched config: err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// renamedBackend prices exactly like the analytic engine but reports
// another Name, so only the pricing-identity check can reject it.
type renamedBackend struct{ memsim.Backend }

func (renamedBackend) Name() string { return "renamed" }

// reframe re-emits orig section by section through Writer.State, one
// U8 per body byte, so the result carries a valid CRC. edit, when not
// nil, may change a copy of each body in place; each name in extra is
// added after the machine section with an eight-byte body.
func reframe(t *testing.T, orig *snapshot.Reader, edit func(name string, body []byte), extra ...string) *snapshot.Reader {
	t.Helper()
	var buf bytes.Buffer
	sw, err := snapshot.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, body []byte) {
		if err := sw.State(name, func(c *snapshot.Codec) error {
			for i := range body {
				c.U8(&body[i])
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range orig.Sections() {
		raw, _ := orig.Raw(name)
		body := slices.Clone(raw)
		if edit != nil {
			edit(name, body)
		}
		write(name, body)
		if name == "machine" {
			for _, x := range extra {
				write(x, make([]byte, 8))
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

// steppedCheckpoint opens a checkpoint of the snapshotConfig system
// after one epoch.
func steppedCheckpoint(t *testing.T) *snapshot.Reader {
	t.Helper()
	sys, err := NewSystem(snapshotConfig(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.StepEpoch(); err != nil {
		t.Fatal(err)
	}
	rd, err := snapshot.Open(bytes.NewReader(checkpointBytes(t, sys)))
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

// TestSnapshotRejectsBackendSection checks that restore refuses a
// section no checkpoint of the system writes: a "backend" section (the
// pricing model carries no run state), a stale "drf" share book (DRF
// shares derive from the grant counters), and a VM the config does not
// boot. The plain re-emitted copy restores.
func TestSnapshotRejectsBackendSection(t *testing.T) {
	orig := steppedCheckpoint(t)
	if _, err := RestoreSystem(reframe(t, orig, nil), snapshotConfig(t, nil)); err != nil {
		t.Fatalf("re-emitted snapshot without an extra section: %v", err)
	}
	for _, extra := range []string{"backend", "drf", "vm9"} {
		_, err := RestoreSystem(reframe(t, orig, nil, extra), snapshotConfig(t, nil))
		if err == nil || !strings.Contains(err.Error(), extra+" section") {
			t.Fatalf("restore with a %s section: err = %v, want a %s-section rejection", extra, err, extra)
		}
	}
}

// TestRestoreRefusesGrantMismatch raises VM 1's FastMem grant counter
// (the first field of its section) by one. Every section still decodes,
// but the grants no longer sum to the machine's allocated frames, so
// restore must refuse the snapshot instead of handing DRF a share the
// machine does not back.
func TestRestoreRefusesGrantMismatch(t *testing.T) {
	bumped := reframe(t, steppedCheckpoint(t), func(name string, body []byte) {
		if name == "vm1" {
			binary.LittleEndian.PutUint64(body, binary.LittleEndian.Uint64(body)+1)
		}
	})
	_, err := RestoreSystem(bumped, snapshotConfig(t, nil))
	if err == nil || !strings.Contains(err.Error(), "grants") {
		t.Fatalf("restore with a raised grant counter: err = %v, want a grant-mismatch refusal", err)
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

// TestCheckpointReportsEncodeErrors checks that a value encoding/json
// cannot marshal fails Checkpoint and EmigrateVM instead of leaving a
// short section under a valid checksum for the restore to trip over.
func TestCheckpointReportsEncodeErrors(t *testing.T) {
	sys, err := NewSystem(snapshotConfig(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.StepEpoch(); err != nil {
		t.Fatal(err)
	}
	sys.SetTierSpec(memsim.SlowMem, memsim.TierSpec{LoadLatencyNs: math.NaN(), StoreLatencyNs: 1, BandwidthGBs: 1})
	var buf bytes.Buffer
	if err := sys.Checkpoint(&buf); err == nil || !strings.Contains(err.Error(), "machine") {
		t.Fatalf("Checkpoint with a NaN tier spec: err = %v, want a machine-section error", err)
	}

	src, err := NewSystem(migHostCfg(t, 11, migVM(t, 11)))
	if err != nil {
		t.Fatal(err)
	}
	stepN(t, src, 2)
	src.VMs[0].Res.ScanCostNs = math.NaN()
	if _, err := src.EmigrateVM(1); err == nil {
		t.Fatal("EmigrateVM with a NaN result succeeded")
	}
	if len(src.VMs) != 1 || len(src.Departed) != 0 {
		t.Fatalf("failed EmigrateVM changed the host: %d live, %d departed", len(src.VMs), len(src.Departed))
	}
}

// snapshotPinVersion is the snapshot.Version that wrote snapshotPins.
const snapshotPinVersion = 8

// snapshotPins is the sha256 of each TestSnapshotEveryWorkloadRoundTrips
// case's checkpoint after four epochs. A round trip cannot see a field
// written and read in a new order, because writer and reader change
// together; these pins can. A change to the checkpoint bytes must bump
// snapshot.Version; then update snapshotPinVersion and every pin here.
var snapshotPins = map[string]string{
	"GraphChi":           "67111d262b6b2e1e59709abd028a6108b124702b9fc85d48353adeaefdcc915d",
	"X-Stream":           "849cca26151b016111b615e626627278882ae24f4df48bb196499137a13c219a",
	"Metis":              "37f94859b8f5921e0fb8d268b2ca9bac0b8d7f94b9927235c6018344969dd36d",
	"LevelDB":            "52ab00f5261e25380b1fbef0f0620607ae0fc1edf0c601be0ed72a4e4efcc625",
	"Redis":              "26c5f37a3dc1190be85c07cf63f025e493acb228c6b506e106c004a809e16d36",
	"Nginx":              "52fc9e150d01597780d93b6b9731ce161a718f21fd6da079baea6749dd1cc4ed",
	"memlat":             "a7ab2522183b9123a5f4d5b6ab3475e2ac9bfa60c60ec9058c655bfa9f885630",
	"stream":             "319bac7ac2e960430e70f5ec30dc97d5a45633f5006fdf52710438f44d21034b",
	"writeheavy":         "6777863f52c470e66c30f3e61562b0e50c0a002eab14e9ce6438c3357a1fb01d",
	"mode/none":          "a5314c71e683f247379aa3f9b649c7f1418fd90cab0882eec38ce08756d12469",
	"mode/VMM-exclusive": "e86fea1b34e1ae18ceeee72334b6b0341cd3552cfc4354854465a970427a9af2",
	"share/static":       "d1a4c858abf3dadfadec7b1f42b9270427b4a62c2fefef7c4a1b44b3d21d5eb1",
	"share/max-min":      "29757b6297e4bc4e7b78a8783994edff3ca16c0cde83af165c636c3092757f3b",
	"share/drf":          "ca510fa17a0927aa848337999ec6a3e4f2e0220181d0333582dc25974975c7bf",
}

// TestSnapshotEveryWorkloadRoundTrips checkpoints a small system
// mid-run for every workload.ByName app, one VM per migration mode
// (none, VMM-exclusive, coordinated) and one host per share policy,
// and checks each checkpoint's bytes against snapshotPins. The
// restored system must then re-checkpoint byte-identically and finish
// with identical results. The share-policy hosts run three traced VMs
// and shut one down before the checkpoint, so the departed section and
// trace logs are pinned as well.
func TestSnapshotEveryWorkloadRoundTrips(t *testing.T) {
	type vmCase struct {
		app  string
		mode policy.Mode
	}
	type sysCase struct {
		name   string
		share  ShareKind
		vms    []vmCase
		depart vmm.VMID // shut down before the checkpoint; 0 for none
	}
	var cases []sysCase
	for _, app := range append(workload.Names(), "memlat", "stream", "writeheavy") {
		cases = append(cases, sysCase{name: app,
			vms: []vmCase{{app, policy.HeteroOSCoordinated()}}})
	}
	// Every app case runs coordinated; these add the other two modes.
	for _, m := range []policy.Mode{policy.HeteroOSLRU(), policy.VMMExclusive()} {
		cases = append(cases, sysCase{name: "mode/" + m.Migration.String(),
			vms: []vmCase{{"Redis", m}}})
	}
	for _, share := range []ShareKind{ShareStatic, ShareMaxMin, ShareDRF} {
		cases = append(cases, sysCase{name: "share/" + string(share), share: share, depart: 2,
			vms: []vmCase{
				{"GraphChi", policy.HeteroOSCoordinated()},
				{"memlat", policy.VMMExclusive()},
				{"LevelDB", policy.HeteroOSLRU()},
			}})
	}
	if snapshot.Version != snapshotPinVersion {
		t.Fatalf("snapshot.Version is %d but snapshotPins were captured at version %d: re-pin every case",
			snapshot.Version, snapshotPinVersion)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(skip vmm.VMID) *System {
				cfg := Config{
					FastFrames: 16384, SlowFrames: 32768,
					Seed: 99, MaxEpochs: 64, Share: tc.share, Trace: tc.depart != 0,
				}
				for i, vc := range tc.vms {
					id := vmm.VMID(i + 1)
					if id == skip {
						continue
					}
					w, err := workload.ByName(vc.app, workload.Config{Seed: 99 + uint64(i)})
					if err != nil {
						t.Fatal(err)
					}
					cfg.VMs = append(cfg.VMs, VMConfig{
						ID: id, Mode: vc.mode, Workload: w,
						FastPages: 2048, SlowPages: 4096,
					})
				}
				sys, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}
			sys := mk(0)
			for i := 0; i < 4; i++ {
				if _, err := sys.StepEpoch(); err != nil {
					t.Fatal(err)
				}
			}
			if tc.depart != 0 {
				if _, err := sys.ShutdownVM(tc.depart); err != nil {
					t.Fatal(err)
				}
			}
			snapBytes := checkpointBytes(t, sys)
			if got, want := fmt.Sprintf("%x", sha256.Sum256(snapBytes)), snapshotPins[tc.name]; got != want {
				t.Fatalf("checkpoint sha256 is %s, pinned %s at snapshot.Version %d: "+
					"the checkpoint bytes changed, so bump snapshot.Version and re-pin",
					got, want, snapshotPinVersion)
			}
			rd, err := snapshot.Open(bytes.NewReader(snapBytes))
			if err != nil {
				t.Fatal(err)
			}
			restored, err := RestoreSystem(rd, mk(tc.depart).Cfg)
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
			for i := range tc.vms {
				id := vmm.VMID(i + 1)
				if id == tc.depart {
					continue
				}
				a, _ := sys.VMResultByID(id)
				b, _ := restored.VMResultByID(id)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("VM %d results diverge:\n orig     %+v\n restored %+v", id, *a, *b)
				}
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
