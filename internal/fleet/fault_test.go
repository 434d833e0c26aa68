package fleet

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"heteroos/internal/obs"
)

// eventStream runs a script with observability attached and returns
// the JSONL event stream as a string.
func eventStream(t *testing.T, sc *Script) (*Result, string) {
	t.Helper()
	var buf bytes.Buffer
	h := obs.New()
	h.SetRunTag(sc.Name)
	h.AddSink(obs.NewJSONLSink(&buf, sc.Name))
	r, err := Run(context.Background(), sc, Options{Workers: 2, Obs: h})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	return r, buf.String()
}

func bundled(t *testing.T, name string) *Script {
	t.Helper()
	sc, err := LoadBundled(name)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestLifecycleEventsObservable checks that VM arrival and departure in
// the churn script emit typed lifecycle events, and that the surge
// fault's start/clear window shows up in the stream.
func TestLifecycleEventsObservable(t *testing.T) {
	_, stream := eventStream(t, bundled(t, "churn.json"))
	for _, want := range []string{
		`"vm-boot"`, `"vm-shutdown"`, `"fault-inject"`,
	} {
		if !strings.Contains(stream, want) {
			t.Errorf("event stream lacks %s", want)
		}
	}
	// The surge window emits a start/clear pair of fault-inject events.
	if n := strings.Count(stream, `"fault-inject"`); n < 2 {
		t.Errorf("fault-inject events = %d, want start and clear", n)
	}
	// Four boots (two at round 0, VMs 3 and 4 later); four shutdowns.
	if n := strings.Count(stream, `"vm-boot"`); n != 4 {
		t.Errorf("vm-boot events = %d, want 4", n)
	}
	if n := strings.Count(stream, `"vm-shutdown"`); n != 4 {
		t.Errorf("vm-shutdown events = %d, want 4", n)
	}
}

// TestFaultsObservableAndRecovered checks each degrade fault: every
// injection emits a typed event, visibly perturbs the run, and the
// system recovers after the window closes.
func TestFaultsObservableAndRecovered(t *testing.T) {
	r, stream := eventStream(t, bundled(t, "degrade.json"))
	for _, want := range []string{
		`"fault-inject"`, `"migration-stall"`, `"balloon-refused"`,
	} {
		if !strings.Contains(stream, want) {
			t.Errorf("event stream lacks %s", want)
		}
	}

	// Migration stall: VM 1's scanner skipped passes and retried on the
	// bounded backoff schedule, yet still made migration progress after
	// the window cleared (recovery).
	vm1 := r.VMs[0].Res
	if vm1.MigrationStalledPasses == 0 {
		t.Error("stall window recorded no stalled passes")
	}
	if vm1.MigrationStallRetries == 0 {
		t.Error("stall window recorded no retries")
	}
	if vm1.Promotions == 0 {
		t.Error("VM 1 never migrated — did not recover from the stall")
	}

	// Balloon refusal: VM 2's populate requests were refused during the
	// window and the shortfall was accounted, not silently dropped.
	vm2 := r.VMs[1].Res
	if vm2.BalloonRefusedPages == 0 {
		t.Error("refusal window recorded no refused pages")
	}
	if vm2.BalloonPagesIn == 0 {
		t.Error("VM 2 never ballooned — refusal window should not be total")
	}

	// Recovery: the refusal burst is confined to its window — the last
	// timeline sample shows no ongoing refusals — and is visible in it.
	if last := r.Timeline[len(r.Timeline)-1]; last.Refused != 0 {
		t.Errorf("refusals still accumulating at the end: %d", last.Refused)
	}
	var refused uint64
	for _, s := range r.Timeline {
		refused += s.Refused
	}
	if refused != vm2.BalloonRefusedPages {
		t.Errorf("timeline refusals sum to %d, VM 2 reports %d", refused, vm2.BalloonRefusedPages)
	}

	// Both workloads ran to completion despite the faults.
	for _, v := range r.VMs {
		if !v.Completed {
			t.Errorf("VM %d did not complete under faults", v.ID)
		}
	}
}

// TestMigrationStallBoundedRetry pins the retry/backoff contract: a
// stalled window consumes scan passes without deadlock, and the retry
// count stays a small fraction of the stalled passes.
func TestMigrationStallBoundedRetry(t *testing.T) {
	sc := oneHost("stall", 13, 2048, 16384, 40,
		VMGroup{App: "memlat", Mode: "HeteroOS-coordinated", Count: 2, FastPages: 1024, SlowPages: 4096})
	sc.Events = []Event{{At: 1, Kind: KindMigrationStall, VM: 1, Duration: 4}}
	r := run(t, sc)
	res := r.VMs[0].Res
	if res.MigrationStalledPasses == 0 {
		t.Fatal("no stalled passes recorded")
	}
	if res.MigrationStallRetries == 0 {
		t.Fatal("no retries recorded — backoff never probed")
	}
	if res.MigrationStallRetries >= res.MigrationStalledPasses {
		t.Fatalf("retries %d not a strict subset of stalled passes %d — backoff is not bounding",
			res.MigrationStallRetries, res.MigrationStalledPasses)
	}
	// No deadlock: the stalled VM still finishes its workload, and the
	// scan machinery keeps consuming its debt through the window.
	if !r.VMs[0].Completed {
		t.Fatal("stalled VM never completed — stall deadlocked the scanner")
	}
}

// TestFaultWindowFollowsMigration fails the host of a VM in the middle
// of its migration-stall and balloon-refusal windows: the faults must
// travel with the evacuated VM (its passes keep stalling on the new
// host) and the clear actions must reach it there, so the windows close
// and the stall stops accruing.
func TestFaultWindowFollowsMigration(t *testing.T) {
	build := func(fail bool) *Script {
		sc := &Script{
			Name: "fault-migrate", Seed: 3, Hosts: 2, Rounds: 20, RoundEpochs: 2,
			Host: HostDesc{FastFrames: 4096, SlowFrames: 16384, Share: "drf"},
			VMs: []VMGroup{
				{App: "memlat", Mode: "HeteroOS-coordinated", FastPages: 2048, SlowPages: 8192},
			},
			Events: []Event{
				{At: 1, Kind: KindMigrationStall, VM: 1, Duration: 4},
				{At: 1, Kind: KindBalloonRefusal, VM: 1, Duration: 4},
			},
		}
		if fail {
			sc.Events = append(sc.Events, Event{At: 3, Kind: KindHostFail, Host: 0})
		}
		return sc
	}
	r, stream := eventStream(t, build(true))
	vm := r.VMs[0]
	if vm.Migrations != 1 || vm.Host != 1 {
		t.Fatalf("VM 1 should have been evacuated to host 1: %+v", vm)
	}
	if vm.Res.MigrationStalledPasses == 0 {
		t.Fatal("no stalled passes recorded")
	}
	// Two start/clear pairs, the clears emitted on the destination host.
	if n := strings.Count(stream, `"fault-inject"`); n != 4 {
		t.Errorf("fault-inject events = %d, want 4 (two windows opened and closed)", n)
	}
	if !vm.Completed {
		t.Error("evacuated VM never completed")
	}
	// The same windows on a host that never fails stall the same
	// number of passes: the window's length, not the move, bounds it.
	still := run(t, build(false)).VMs[0]
	if still.Res.MigrationStalledPasses != vm.Res.MigrationStalledPasses {
		t.Errorf("stalled passes %d with evacuation, %d without", vm.Res.MigrationStalledPasses, still.Res.MigrationStalledPasses)
	}
}
