package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"heteroos/internal/memsim"
	"heteroos/internal/obs"
	"heteroos/internal/snapshot"
)

// eventful builds a one-host script exercising every event kind
// alongside the checkpoint machinery: mid-run boot and shutdown, a
// surge window, a migration stall, a balloon refusal, and a throttle
// shift.
func eventful(name string, seed uint64) *Script {
	sc := oneHost(name, seed, 4096, 16384, 48,
		VMGroup{App: "memlat", Mode: "HeteroOS-coordinated", Count: 3, FastPages: 1024, SlowPages: 4096})
	sc.Events = []Event{
		{At: 6, Kind: KindBoot, Boot: &VMGroup{App: "stream", Mode: "HeteroOS-coordinated", FastPages: 128, SlowPages: 1024}},
		{At: 8, Kind: KindSurge, VM: 1, Duration: 10, Factor: 3},
		{At: 10, Kind: KindMigrationStall, VM: 2, Duration: 8},
		{At: 12, Kind: KindBalloonRefusal, VM: 3, Duration: 6},
		{At: 18, Kind: KindShutdown, VM: 2},
		{At: 20, Kind: KindThrottleShift, Throttle: &memsim.Throttle{L: 8, B: 12}},
	}
	return sc
}

// withCheckpoint returns sc with a checkpoint event to path at round at,
// placed after the round's other events.
func withCheckpoint(sc *Script, at int, path string) *Script {
	sc.Events = append(sc.Events, Event{At: at, Kind: KindCheckpoint, Path: path})
	return sc
}

// runWithEvents executes fn against a JSONL-sinked obs handle and
// returns the marshalled result and the raw event stream.
func runWithEvents(t *testing.T, fn func(h *obs.Obs) (*Result, error)) (resultJSON, events []byte) {
	t.Helper()
	var buf bytes.Buffer
	h := obs.New()
	h.SetRunTag("ckpt")
	h.AddSink(obs.NewJSONLSink(&buf, "ckpt"))
	r, err := fn(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return out, buf.Bytes()
}

// restored restores the checkpoint at path and runs it to the end.
func restored(path string, opts Options) (*Result, error) {
	c, err := RestoreFile(path, opts)
	if err != nil {
		return nil, err
	}
	return c.Finish(context.Background())
}

// checkTail asserts the restored run's events are exactly the tail of
// the full run's (the first line of each stream is the JSONL header).
func checkTail(t *testing.T, full, resumed []byte) {
	t.Helper()
	fl := bytes.Split(full, []byte("\n"))[1:]
	rl := bytes.Split(resumed, []byte("\n"))[1:]
	if len(rl) <= 1 || len(rl) > len(fl) {
		t.Fatalf("restored stream has %d event lines, full has %d", len(rl), len(fl))
	}
	tail := fl[len(fl)-len(rl):]
	for i := range rl {
		if !bytes.Equal(tail[i], rl[i]) {
			t.Fatalf("restored event %d differs from full-run tail:\nfull     %s\nrestored %s", i, tail[i], rl[i])
		}
	}
}

// TestCheckpointNonPerturbation: a run with periodic checkpointing must
// produce results and an event stream byte-identical to a plain run of
// the same script — writing snapshots never alters the simulation.
func TestCheckpointNonPerturbation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "latest.hosnap")
	plainRes, plainEv := runWithEvents(t, func(h *obs.Obs) (*Result, error) {
		return Run(context.Background(), eventful("ckpt", 23), Options{Obs: h})
	})
	ckRes, ckEv := runWithEvents(t, func(h *obs.Obs) (*Result, error) {
		return Run(context.Background(), eventful("ckpt", 23),
			Options{Obs: h, CheckpointEvery: 7, CheckpointPath: path})
	})
	if !bytes.Equal(plainRes, ckRes) {
		t.Errorf("results differ with checkpointing on:\n%s\nvs\n%s", plainRes, ckRes)
	}
	if !bytes.Equal(plainEv, ckEv) {
		t.Errorf("event streams differ with checkpointing on (%d vs %d bytes)", len(plainEv), len(ckEv))
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
}

// TestRestoreParity is the restore gold standard: restore a mid-run
// checkpoint and the remaining rounds must reproduce the uninterrupted
// run exactly — same Result JSON, and an event stream equal to the tail
// of the full run's.
func TestRestoreParity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mid.hosnap")
	// A checkpoint event mid-script: after the surge started, while the
	// stall and refusal windows are open, before the shutdown.
	fullRes, fullEv := runWithEvents(t, func(h *obs.Obs) (*Result, error) {
		return Run(context.Background(), withCheckpoint(eventful("ckpt", 23), 14, path), Options{Obs: h})
	})
	resumedRes, resumedEv := runWithEvents(t, func(h *obs.Obs) (*Result, error) {
		return restored(path, Options{Obs: h})
	})
	if !bytes.Equal(fullRes, resumedRes) {
		t.Errorf("restored result differs from uninterrupted run:\n%s\nvs\n%s", fullRes, resumedRes)
	}
	checkTail(t, fullEv, resumedEv)
}

// TestRestoreChainedCheckpoints restores a run that itself keeps
// checkpointing, then restores the second-generation checkpoint —
// checkpoints of restored runs must be as good as first-generation
// ones.
func TestRestoreChainedCheckpoints(t *testing.T) {
	dir := t.TempDir()
	first := filepath.Join(dir, "first.hosnap")
	second := filepath.Join(dir, "second.hosnap")
	sc := withCheckpoint(withCheckpoint(eventful("ckpt", 23), 9, first), 25, second)
	fullRes, _ := runWithEvents(t, func(h *obs.Obs) (*Result, error) {
		return Run(context.Background(), sc, Options{Obs: h})
	})
	// Restore the first checkpoint; it re-writes the second on its way.
	if err := os.Remove(second); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{first, second} {
		res, _ := runWithEvents(t, func(h *obs.Obs) (*Result, error) {
			return restored(path, Options{Obs: h})
		})
		if !bytes.Equal(fullRes, res) {
			t.Errorf("restore of %s differs from the full run", filepath.Base(path))
		}
	}
}

// TestRestoreRejectsForeignSnapshot feeds Restore a missing file and a
// bare core checkpoint, which has no fleet section.
func TestRestoreRejectsForeignSnapshot(t *testing.T) {
	dir := t.TempDir()
	if _, err := RestoreFile(filepath.Join(dir, "absent.hosnap"), Options{}); err == nil {
		t.Fatal("restoring a missing file succeeded")
	}
	c, err := NewCluster(eventful("foreign", 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "core.hosnap")
	var buf bytes.Buffer
	if err := c.hosts[0].sys.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreFile(path, Options{}); err == nil {
		t.Fatal("restoring a bare core checkpoint succeeded")
	}
}

// TestRestoreChurnSections pins restore down to checkpoint bytes: the
// bundled churn script must, after restoring a late checkpoint, re-emit
// byte-identical checkpoints at every later checkpoint event. On
// failure the test names the first section whose bytes diverge.
func TestRestoreChurnSections(t *testing.T) {
	dir := t.TempDir()
	p := func(round int) string { return filepath.Join(dir, fmt.Sprintf("ck-%d.hosnap", round)) }
	sc := bundled(t, "churn.json")
	for r := 52; r <= 55; r++ {
		withCheckpoint(sc, r, p(r))
	}
	if _, err := Run(context.Background(), sc, Options{}); err != nil {
		t.Fatal(err)
	}
	// Restoring round 52 re-fires the later checkpoint events, which
	// overwrite the full run's files; keep those aside first.
	full := map[int][]byte{}
	for r := 53; r <= 55; r++ {
		b, err := os.ReadFile(p(r))
		if err != nil {
			t.Fatal(err)
		}
		full[r] = b
	}
	if _, err := restored(p(52), Options{}); err != nil {
		t.Fatal(err)
	}
	for r := 53; r <= 55; r++ {
		again, err := os.ReadFile(p(r))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(full[r], again) {
			t.Errorf("round %d: restored run's checkpoint differs: %s", r, firstDiff(full[r], again))
		}
	}
}

// firstDiff names the first section (for a host, down to its nested
// core section) whose bytes differ between two checkpoints.
func firstDiff(a, b []byte) string {
	open := func(b []byte) *snapshot.Reader {
		r, err := snapshot.Open(bytes.NewReader(b))
		if err != nil {
			return &snapshot.Reader{}
		}
		return r
	}
	diff := func(ra, rb *snapshot.Reader) string {
		for _, name := range ra.Sections() {
			ba, _ := ra.Raw(name)
			if bb, _ := rb.Raw(name); !bytes.Equal(ba, bb) {
				return name
			}
		}
		return ""
	}
	ra, rb := open(a), open(b)
	name := diff(ra, rb)
	if name == "" || name == "fleet" {
		return name
	}
	// A host section's body is the host's own length-prefixed checkpoint.
	inner := func(r *snapshot.Reader) (b []byte) {
		_ = r.State(name, func(c *snapshot.Codec) error {
			c.Bytes(&b)
			return nil
		})
		return b
	}
	return name + "/" + diff(open(inner(ra)), open(inner(rb)))
}

// TestRestoreFleetChurnAfterHostFail checkpoints the 3-host churn
// script right after its round-3 host failure — a failed host, two
// evacuated VMs, and migrated-out stubs on the dead host — and requires
// the restored run to finish byte-identically, events included.
func TestRestoreFleetChurnAfterHostFail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.hosnap")
	fullRes, fullEv := runWithEvents(t, func(h *obs.Obs) (*Result, error) {
		return Run(context.Background(), bundled(t, "fleet-churn.json"),
			Options{Workers: 3, Obs: h, CheckpointEvery: 4, CheckpointPath: path})
	})
	c, err := RestoreFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !c.hosts[0].failed || len(c.migrations) < 2 {
		t.Fatalf("checkpoint should follow the host failure (failed=%v, %d migrations)", c.hosts[0].failed, len(c.migrations))
	}
	resumedRes, resumedEv := runWithEvents(t, func(h *obs.Obs) (*Result, error) {
		return restored(path, Options{Workers: 2, Obs: h})
	})
	if !bytes.Equal(fullRes, resumedRes) {
		t.Errorf("restored fleet result differs:\n%s\nvs\n%s", fullRes, resumedRes)
	}
	checkTail(t, fullEv, resumedEv)
}

// pinnedChurnCheckpoint is the format version and sha256 of the bundled
// churn script's checkpoint after 13 rounds. A change to the checkpoint
// bytes must bump snapshot.Version; then update both fields here.
var pinnedChurnCheckpoint = struct {
	version uint32
	sha256  string
}{7, "f869ab9bc34dc9a7b31308fdf7280c45e0b2a03f3cf24366a917c8ed3a106f7f"}

// TestCheckpointFormatPinned catches a checkpoint format change that
// forgot to bump snapshot.Version: the churn checkpoint's bytes are
// pinned together with the version that wrote them.
func TestCheckpointFormatPinned(t *testing.T) {
	c, err := NewCluster(bundled(t, "churn.json"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 13; r++ {
		if err := c.StepRound(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "churn-13.hosnap")
	if err := c.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%x", sha256.Sum256(b))
	pin := pinnedChurnCheckpoint
	switch {
	case snapshot.Version != pin.version:
		t.Fatalf("snapshot.Version is %d but the pinned checkpoint is version %d: re-pin to {%d, %q}",
			snapshot.Version, pin.version, snapshot.Version, got)
	case got != pin.sha256:
		t.Fatalf("churn checkpoint sha256 is %s, pinned %s at snapshot.Version %d: "+
			"the checkpoint bytes changed, so bump snapshot.Version and re-pin",
			got, pin.sha256, pin.version)
	}
}
