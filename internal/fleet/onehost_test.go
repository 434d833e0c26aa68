package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"heteroos/internal/memsim"
)

// oneHost builds a single-machine script: one host, one epoch per
// round and DRF shares — the shape of the bundled churn.json and
// degrade.json.
func oneHost(name string, seed uint64, fast, slow uint64, rounds int, vms ...VMGroup) *Script {
	return &Script{
		Name: name, Seed: seed, Hosts: 1, Rounds: rounds, RoundEpochs: 1,
		Host: HostDesc{FastFrames: fast, SlowFrames: slow, Share: "drf"},
		VMs:  vms,
	}
}

func run(t *testing.T, sc *Script) *Result {
	t.Helper()
	r, err := Run(context.Background(), sc, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestChurnScenario runs the bundled churn script end to end: four VMs
// arrive and depart on schedule, the surge perturbs its target, and no
// invariant violation occurs at any departure.
func TestChurnScenario(t *testing.T) {
	r := runBundled(t, "churn.json", Options{})
	if len(r.VMs) != 4 {
		t.Fatalf("VM count = %d, want 4", len(r.VMs))
	}
	wantBoot := map[int32]int{1: 0, 2: 0, 3: 8, 4: 16}
	wantDown := map[int32]int{1: 14, 2: 26, 3: 32, 4: 56}
	for _, v := range r.VMs {
		if v.BootRound != wantBoot[int32(v.ID)] {
			t.Errorf("VM %d boot round = %d, want %d", v.ID, v.BootRound, wantBoot[int32(v.ID)])
		}
		if v.ShutdownRound != wantDown[int32(v.ID)] {
			t.Errorf("VM %d shutdown round = %d, want %d", v.ID, v.ShutdownRound, wantDown[int32(v.ID)])
		}
	}
	// VM 1 is shut down mid-workload; VMs 2 and 3 run to completion.
	if r.VMs[0].Completed {
		t.Error("VM 1 completed despite mid-workload shutdown")
	}
	if !r.VMs[1].Completed || !r.VMs[2].Completed {
		t.Error("VM 2/3 did not complete")
	}
	// The tables must render every VM and every round.
	if got := r.Table().Rows(); got != 4 {
		t.Errorf("table rows = %d, want 4", got)
	}
	if got := r.TimelineTable().Rows(); got != 96 {
		t.Errorf("timeline rows = %d, want one per round (96)", got)
	}
}

// TestSurgePerturbsTimeline checks that a surge window visibly changes
// the target VM's outcome versus the same script without the surge.
func TestSurgePerturbsTimeline(t *testing.T) {
	runSurge := func(surge bool) *Result {
		sc := oneHost("surge", 9, 8192, 16384, 64,
			VMGroup{App: "stream", Mode: "HeteroOS-coordinated", Count: 2, FastPages: 2048, SlowPages: 4096})
		if surge {
			sc.Events = []Event{{At: 2, Kind: KindSurge, VM: 2, Duration: 6, Factor: 3}}
		}
		return run(t, sc)
	}
	with, without := runSurge(true), runSurge(false)
	// The surged VM burns through its workload in fewer epochs.
	if with.VMs[1].Res.Epochs >= without.VMs[1].Res.Epochs {
		t.Errorf("surge did not shorten VM 2: %d vs %d epochs",
			with.VMs[1].Res.Epochs, without.VMs[1].Res.Epochs)
	}
	if !with.VMs[1].Completed {
		t.Error("surged VM did not complete")
	}
	// The unsurged control VM is untouched in both runs.
	if with.VMs[0].Res.Instr != without.VMs[0].Res.Instr {
		t.Errorf("control VM perturbed: %d vs %d instructions",
			with.VMs[0].Res.Instr, without.VMs[0].Res.Instr)
	}
}

// TestThrottleShiftPerturbs checks that a mid-run SlowMem throttle
// worsening slows the run down versus the unshifted control.
func TestThrottleShiftPerturbs(t *testing.T) {
	runShift := func(shift bool) *Result {
		sc := oneHost("shift", 5, 2048, 16384, 40,
			VMGroup{App: "memlat", Mode: "HeteroOS-coordinated", FastPages: 1024, SlowPages: 4096})
		sc.Host.SlowThrottle = &memsim.Throttle{L: 2, B: 2}
		if shift {
			sc.Events = []Event{{At: 4, Kind: KindThrottleShift, Throttle: &memsim.Throttle{L: 5, B: 9}}}
		}
		return run(t, sc)
	}
	with, without := runShift(true), runShift(false)
	if with.VMs[0].Res.SimTime <= without.VMs[0].Res.SimTime {
		t.Errorf("throttle worsening did not slow the run: %v vs %v",
			with.VMs[0].Res.SimTime, without.VMs[0].Res.SimTime)
	}
}

// oneHostBundled lists the bundled single-host scripts — the
// scenarios a lone machine runs.
func oneHostBundled(t *testing.T) []string {
	t.Helper()
	var names []string
	for _, name := range Bundled() {
		if bundled(t, name).Hosts == 1 {
			names = append(names, name)
		}
	}
	return names
}

// contended builds a 3-VM one-host script whose FastMem spans fill the
// machine (3 x 1024 span over 3072 frames) — the shape where DRF
// arbitration and mid-run departures actually move shares around.
func contended(name string, seed uint64) *Script {
	return oneHost(name, seed, 3072, 16384, 40,
		VMGroup{App: "memlat", Mode: "HeteroOS-coordinated", Count: 3, FastPages: 1024, SlowPages: 4096})
}

// TestBundledScenariosLoad checks the bundled single-host scenarios:
// churn.json and degrade.json load as one-host DRF scripts, a
// nonexistent name fails, and a missing path falls back to them.
func TestBundledScenariosLoad(t *testing.T) {
	names := oneHostBundled(t)
	if len(names) < 2 {
		t.Fatalf("bundled one-host scenarios = %v, want churn.json and degrade.json", names)
	}
	for _, name := range names {
		sc := bundled(t, name)
		if sc.share() != "drf" || sc.TotalVMs() == 0 {
			t.Errorf("%s: share=%q vms=%d, want a DRF host booting VMs", name, sc.share(), sc.TotalVMs())
		}
	}
	if _, err := LoadBundled("nonexistent.json"); err == nil {
		t.Error("loading a nonexistent bundled scenario succeeded")
	}
	// A path that does not exist on disk falls back to the bundled set.
	if sc, err := LoadFile("/no/such/dir/churn.json"); err != nil {
		t.Errorf("bundled fallback failed: %v", err)
	} else if sc.Hosts != 1 {
		t.Errorf("churn.json fallback has %d hosts, want 1", sc.Hosts)
	}
}

// TestValidateRejections feeds Validate one-host scripts that are each
// wrong in one way and checks every one is refused.
func TestValidateRejections(t *testing.T) {
	base := func() *Script {
		return oneHost("v", 1, 4096, 4096, 16,
			VMGroup{App: "memlat", Mode: "HeteroOS-coordinated", FastPages: 512, SlowPages: 512})
	}
	with := func(events ...Event) *Script {
		sc := base()
		sc.Events = events
		return sc
	}
	cases := []struct {
		name  string
		build func() *Script
	}{
		{"zero machine", func() *Script {
			sc := base()
			sc.Host.FastFrames, sc.Host.SlowFrames = 0, 0
			return sc
		}},
		{"unknown share", func() *Script {
			sc := base()
			sc.Host.Share = "fifo"
			return sc
		}},
		{"unknown app", func() *Script {
			sc := base()
			sc.VMs[0].App = "fortran"
			return sc
		}},
		{"unknown mode", func() *Script {
			sc := base()
			sc.VMs[0].Mode = "psychic"
			return sc
		}},
		{"event targets unknown VM", func() *Script { return with(Event{At: 4, Kind: KindShutdown, VM: 9}) }},
		{"boot without description", func() *Script { return with(Event{At: 2, Kind: KindBoot}) }},
		{"throttle shift without point", func() *Script { return with(Event{At: 2, Kind: KindThrottleShift}) }},
		{"unknown kind", func() *Script { return with(Event{At: 2, Kind: "meteor"}) }},
		{"negative round", func() *Script { return with(Event{At: -1, Kind: KindShutdown, VM: 1}) }},
		{"round past the end", func() *Script { return with(Event{At: 16, Kind: KindShutdown, VM: 1}) }},
		{"negative duration", func() *Script { return with(Event{At: 2, Kind: KindSurge, VM: 1, Duration: -3}) }},
		{"negative factor", func() *Script { return with(Event{At: 2, Kind: KindSurge, VM: 1, Factor: -2}) }},
		{"zero memory span", func() *Script {
			sc := base()
			sc.VMs[0].FastPages, sc.VMs[0].SlowPages = 0, 0
			return sc
		}},
		{"non-positive VM id", func() *Script { return with(Event{At: 2, Kind: KindShutdown, VM: -1}) }},
		{"checkpoint without path", func() *Script { return with(Event{At: 2, Kind: KindCheckpoint}) }},
		{"surge of a VM never booted", func() *Script { return with(Event{At: 2, Kind: KindSurge, VM: 7, Duration: 4, Factor: 2}) }},
	}
	for _, tc := range cases {
		if err := tc.build().Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid script rejected: %v", err)
	}
}

// TestWorkerCountInvariance checks that a batch of one-host scripts
// gives the same results stepped serially with one worker and run
// concurrently with four workers each.
func TestWorkerCountInvariance(t *testing.T) {
	batch := func() []*Script {
		var scs []*Script
		for _, name := range oneHostBundled(t) {
			scs = append(scs, bundled(t, name))
		}
		extra := contended("batch-extra", 17)
		extra.Events = []Event{{At: 3, Kind: KindShutdown, VM: 3}}
		return append(scs, extra)
	}
	marshal := func(r *Result) []byte {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var serial [][]byte
	for _, sc := range batch() {
		serial = append(serial, marshal(run(t, sc)))
	}
	scs := batch()
	results := make([]*Result, len(scs))
	errs := make([]error, len(scs))
	var wg sync.WaitGroup
	for i, sc := range scs {
		wg.Add(1)
		go func(i int, sc *Script) {
			defer wg.Done()
			results[i], errs[i] = Run(context.Background(), sc, Options{Workers: 4})
		}(i, sc)
	}
	wg.Wait()
	for i := range scs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", scs[i].Name, errs[i])
		}
		if !bytes.Equal(serial[i], marshal(results[i])) {
			t.Errorf("%s differs between 1 serial and 4 concurrent workers", scs[i].Name)
		}
	}
}
