package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"heteroos/internal/core"
	"heteroos/internal/obs"
	"heteroos/internal/vmm"
)

// runBundled executes a bundled fleet script and fails the test on any
// error.
func runBundled(t *testing.T, name string, opts Options) *Result {
	t.Helper()
	sc, err := LoadBundled(name)
	if err != nil {
		t.Fatalf("LoadBundled(%q): %v", name, err)
	}
	res, err := Run(context.Background(), sc, opts)
	if err != nil {
		t.Fatalf("Run(%q): %v", name, err)
	}
	return res
}

// TestFleetDeterministicAcrossWorkers is the placement-determinism
// property: the same script must produce a byte-identical result
// regardless of how many pool workers step the hosts.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	var baseline []byte
	for _, workers := range []int{1, 4, 16} {
		res := runBundled(t, "fleet-churn.json", Options{Workers: workers})
		b, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			t.Fatalf("marshal (workers=%d): %v", workers, err)
		}
		if baseline == nil {
			baseline = b
			continue
		}
		if !bytes.Equal(baseline, b) {
			t.Fatalf("result with %d workers differs from 1 worker:\n%s\nvs\n%s", workers, b, baseline)
		}
	}
}

// TestFleetChurnRollupReconciles runs the bundled churn script with
// observability attached and pins the fleet's accounting identities:
//
//  1. FleetSum (per-VM lifetime results) equals the sum of HostSum over
//     all hosts — migration stubs carry zero, so nothing double-counts.
//  2. The root registry's host/ subtree equals the Merge of each
//     host's own snapshot re-parented under "host/<id>" — the snapshot
//     algebra round-trips the hierarchy.
//  3. The rolled-up core.epochs counter equals the summed Res.Epochs —
//     the metric stream and the result structs agree exactly, across
//     migrations.
func TestFleetChurnRollupReconciles(t *testing.T) {
	h := obs.New()
	res := runBundled(t, "fleet-churn.json", Options{Workers: 3, Obs: h})

	fleet := res.FleetSum()
	var hosts core.VMResult
	for _, hr := range res.HostRuns {
		s := res.HostSum(hr.ID)
		AddResults(&hosts, &s)
	}
	if !reflect.DeepEqual(fleet, hosts) {
		t.Errorf("FleetSum != sum of HostSum:\nfleet: %+v\nhosts: %+v", fleet, hosts)
	}

	root := h.Metrics.Snapshot()
	var sub obs.Snapshot
	prefix := "host" + obs.ScopeSep
	for _, v := range root.Values {
		if v.Scope == "host" || strings.HasPrefix(v.Scope, prefix) {
			sub.Values = append(sub.Values, v)
		}
	}
	sub = sub.Merge(obs.Snapshot{}) // canonical order
	var merged obs.Snapshot
	for _, hr := range res.HostRuns {
		if hr.Obs == nil {
			t.Fatalf("host %d has no obs handle", hr.ID)
		}
		host := hr.Obs.Metrics.Snapshot()
		for i := range host.Values {
			host.Values[i].Scope = strings.TrimSuffix(prefix+strconv.Itoa(hr.ID)+obs.ScopeSep+host.Values[i].Scope, obs.ScopeSep)
		}
		merged = merged.Merge(host)
	}
	if !reflect.DeepEqual(sub.Values, merged.Values) {
		t.Errorf("root host/ subtree (%d values) != merged per-host snapshots (%d values)",
			len(sub.Values), len(merged.Values))
	}

	mv := root.Rollup().Find("core.epochs")
	if mv == nil {
		t.Fatal("rollup has no core.epochs counter")
	}
	epochs := 0
	for i := range res.VMs {
		epochs += res.VMs[i].Res.Epochs
	}
	if mv.Value != float64(epochs) {
		t.Errorf("rolled-up core.epochs = %v, sum of Res.Epochs = %d", mv.Value, epochs)
	}
}

// TestFleetChurnMigratesAndPreservesHeat checks the churn script's
// expected shape: the host failure forces evacuations, and every live
// migration carries the VM's heat profile bit-identically.
func TestFleetChurnMigratesAndPreservesHeat(t *testing.T) {
	res := runBundled(t, "fleet-churn.json", Options{Workers: 2})
	if len(res.Migrations) < 2 {
		t.Fatalf("churn produced %d migrations, want >= 2", len(res.Migrations))
	}
	evacuations := 0
	for _, m := range res.Migrations {
		if !m.HeatPreserved {
			t.Errorf("migration of VM %d (round %d, host %d -> %d) did not preserve heat", m.VM, m.Round, m.From, m.To)
		}
		if m.Frames == 0 {
			t.Errorf("migration of VM %d moved zero frames", m.VM)
		}
		if m.Evacuation {
			evacuations++
		}
	}
	if evacuations == 0 {
		t.Error("host-fail event produced no evacuation migrations")
	}
	if !res.HostRuns[0].Failed {
		t.Error("host 0 should be failed")
	}
	for i := range res.VMs {
		v := &res.VMs[i]
		if v.Lost {
			t.Errorf("VM %d lost; churn script has room for every evacuee", v.ID)
		}
		if v.Host == 0 && !res.HostRuns[0].Failed {
			t.Errorf("VM %d still accounted to failed host 0", v.ID)
		}
	}
}

// TestFleetHostFailStrandsUnplaceable fails a host in a fleet with no
// spare room: the evacuee fits nowhere, so it is stranded (lost) on the
// dead host with its partial results intact — and the accounting
// identities still hold.
func TestFleetHostFailStrandsUnplaceable(t *testing.T) {
	sc := &Script{
		Name: "strand", Seed: 7, Hosts: 2, Rounds: 3, RoundEpochs: 4,
		Host: HostDesc{FastFrames: 6144, SlowFrames: 18432},
		VMs: []VMGroup{
			{App: "memlat", Mode: "HeteroOS-coordinated", Count: 2, FastPages: 4096, SlowPages: 16384},
		},
		Events: []Event{{At: 1, Kind: KindHostFail, Host: 0}},
	}
	res, err := Run(context.Background(), sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v0, v1 := &res.VMs[0], &res.VMs[1]
	if !v0.Lost || v0.Host != 0 {
		t.Fatalf("VM 1 should be stranded on host 0: %+v", v0)
	}
	if v0.Res.Epochs != sc.RoundEpochs {
		t.Errorf("stranded VM ran %d epochs, want %d (round 0 only)", v0.Res.Epochs, sc.RoundEpochs)
	}
	if v1.Lost || v1.Migrations != 0 {
		t.Errorf("VM 2 on the surviving host should be unaffected: %+v", v1)
	}
	if len(res.Migrations) != 0 {
		t.Errorf("no migration should succeed, got %d", len(res.Migrations))
	}
	for _, s := range res.Timeline {
		wantLost := 0
		if s.Round >= 1 {
			wantLost = 1
		}
		if s.Lost != wantLost {
			t.Errorf("round %d: lost = %d, want %d", s.Round, s.Lost, wantLost)
		}
	}
	fleet := res.FleetSum()
	var hosts core.VMResult
	for _, hr := range res.HostRuns {
		s := res.HostSum(hr.ID)
		AddResults(&hosts, &s)
	}
	if !reflect.DeepEqual(fleet, hosts) {
		t.Errorf("reconciliation broke with a lost VM:\nfleet: %+v\nhosts: %+v", fleet, hosts)
	}
}

// TestFleetCountTargets exercises count-based surge and shutdown: the
// Count lowest-id eligible VMs are picked, surged VMs finish earlier,
// and shutdown retires them at the scripted round.
func TestFleetCountTargets(t *testing.T) {
	sc := &Script{
		Name: "count-churn", Seed: 11, Hosts: 1, Rounds: 6, RoundEpochs: 4,
		Host: HostDesc{FastFrames: 16384, SlowFrames: 65536},
		VMs: []VMGroup{
			{App: "memlat", Mode: "HeteroOS-coordinated", Count: 3, FastPages: 4096, SlowPages: 16384},
		},
		Events: []Event{
			{At: 0, Kind: KindSurge, Count: 2, Factor: 3, Duration: 2},
			{At: 4, Kind: KindShutdown, Count: 2},
		},
	}
	res, err := Run(context.Background(), sc, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{4, 4, -1} {
		if got := res.VMs[i].ShutdownRound; got != want {
			t.Errorf("VM %d shutdown round = %d, want %d", i+1, got, want)
		}
		if !res.VMs[i].Completed {
			t.Errorf("VM %d should have completed", i+1)
		}
	}
	if s, u := res.VMs[0].Res.Epochs, res.VMs[2].Res.Epochs; s >= u {
		t.Errorf("surged VM ran %d epochs, unsurged %d; surge should shorten the run", s, u)
	}
	last := res.Timeline[len(res.Timeline)-1]
	if last.RunningVMs != 0 {
		t.Errorf("final round still has %d running VMs", last.RunningVMs)
	}
	if last.ResidentVMs != 1 {
		t.Errorf("final round has %d resident VMs, want 1 (VM 3)", last.ResidentVMs)
	}
}

// TestFleetMigratedVMsComplete pins that migration does not derail a
// workload: every VM the churn script moved still runs to completion
// on its destination host (the workload cursor travelled with it).
func TestFleetMigratedVMsComplete(t *testing.T) {
	res := runBundled(t, "fleet-churn.json", Options{Workers: 2})
	migrated := map[vmm.VMID]bool{}
	for _, m := range res.Migrations {
		migrated[m.VM] = true
	}
	if len(migrated) == 0 {
		t.Fatal("no VM migrated")
	}
	for i := range res.VMs {
		v := &res.VMs[i]
		if migrated[v.ID] && !v.Completed {
			t.Errorf("migrated VM %d did not complete (epochs %d)", v.ID, v.Res.Epochs)
		}
	}
}
