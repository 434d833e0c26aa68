package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"heteroos/internal/memsim"
	"heteroos/internal/obs"
	"heteroos/internal/vmm"
)

// bootTestCluster builds an empty two-host pressure-pack cluster. Each
// host fits four bootTestGroup VMs, but host 1 starts with half its
// span committed, so best-fit placement sends VMs 1-2 to host 1 and
// VMs 3-6 to host 0: host order and VM-id order disagree.
func bootTestCluster(t *testing.T) *Cluster {
	t.Helper()
	sc := &Script{
		Name: "boot-order", Seed: 5, Hosts: 2, Rounds: 1, RoundEpochs: 1, Scale: 512,
		Host:      HostDesc{FastFrames: 2048, SlowFrames: 4096},
		Placement: PlacementPressurePack,
	}
	c, err := NewCluster(sc, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.hosts[1].fastCommitted, c.hosts[1].slowCommitted = 1024, 2048
	return c
}

func bootTestGroup(count int) *VMGroup {
	return &VMGroup{App: "memlat", Mode: "HeteroOS-coordinated", Count: count, FastPages: 512, SlowPages: 1024}
}

// hostVMs lists the ids of the VMs running on a host, in boot order.
func hostVMs(c *Cluster, id int) []vmm.VMID {
	var ids []vmm.VMID
	for _, inst := range c.hosts[id].sys.VMs {
		ids = append(ids, inst.ID)
	}
	return ids
}

// squat boots a small VM with the given id directly on a host, behind
// the fleet's books, so the fleet's own boot of that id fails there.
func squat(t *testing.T, c *Cluster, hostID int, id vmm.VMID) {
	t.Helper()
	st := &vmState{vmRecord: vmRecord{ID: id, App: "memlat", Mode: "HeteroOS-coordinated", FastPages: 64, SlowPages: 64}}
	vc, err := c.vmConfig(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.hosts[hostID].sys.BootVM(vc); err != nil {
		t.Fatal(err)
	}
}

// TestNewClusterReportsLowestFailingHost: hosts are built in the pool,
// and when every build fails the error is host 0's, whichever job
// finished first.
func TestNewClusterReportsLowestFailingHost(t *testing.T) {
	sc := &Script{
		Name: "too-big", Seed: 5, Hosts: 3, Rounds: 1, RoundEpochs: 1,
		Host: HostDesc{FastFrames: memsim.MaxFrames + 1, SlowFrames: 4096},
	}
	_, err := NewCluster(sc, Options{Workers: 3})
	if err == nil || !strings.Contains(err.Error(), "host 0: core: machine of") {
		t.Fatalf("NewCluster = %v, want host 0's build error", err)
	}
}

// TestBootGroupPlacementErrorAfterBoots: a VM that fits nowhere ends
// the group with its placement error, and every VM placed before it
// has booted, each host's VMs in id order.
func TestBootGroupPlacementErrorAfterBoots(t *testing.T) {
	c := bootTestCluster(t)
	err := c.bootGroup(context.Background(), bootTestGroup(8))
	if err == nil || !strings.Contains(err.Error(), "no host fits VM 7") {
		t.Fatalf("bootGroup = %v, want a placement error for VM 7", err)
	}
	if got, want := hostVMs(c, 0), []vmm.VMID{3, 4, 5, 6}; !slices.Equal(got, want) {
		t.Errorf("host 0 runs %v, want %v", got, want)
	}
	if got, want := hostVMs(c, 1), []vmm.VMID{1, 2}; !slices.Equal(got, want) {
		t.Errorf("host 1 runs %v, want %v", got, want)
	}
	for _, h := range c.hosts {
		if err := h.sys.CheckInvariants(); err != nil {
			t.Errorf("host %d: %v", h.id, err)
		}
	}
}

// TestBootGroupLowestFailingVM: when boots fail on several hosts, the
// error is the lowest failing VM id's (VM 2 on host 1), not the first
// failing host's (VM 3 on host 0), and it outranks the group's later
// placement error. Each host stops at its own first failure.
func TestBootGroupLowestFailingVM(t *testing.T) {
	c := bootTestCluster(t)
	squat(t, c, 0, 3)
	squat(t, c, 1, 2)
	err := c.bootGroup(context.Background(), bootTestGroup(8))
	if err == nil || !strings.Contains(err.Error(), "boot VM 2 on host 1") || !strings.Contains(err.Error(), "already running") {
		t.Fatalf("bootGroup = %v, want the boot error of VM 2 on host 1", err)
	}
	if got, want := hostVMs(c, 0), []vmm.VMID{3}; !slices.Equal(got, want) {
		t.Errorf("host 0 runs %v, want only the squatter %v", got, want)
	}
	if got, want := hostVMs(c, 1), []vmm.VMID{2, 1}; !slices.Equal(got, want) {
		t.Errorf("host 1 runs %v, want the squatter then VM 1: %v", got, want)
	}
}

// TestResultReportsFirstFailingHost: Result checks the hosts'
// invariants through the pool but reports in host order.
func TestResultReportsFirstFailingHost(t *testing.T) {
	c := bootTestCluster(t)
	if err := c.bootGroup(context.Background(), bootTestGroup(6)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Result(); err != nil {
		t.Fatalf("clean cluster: %v", err)
	}
	// A frame owned by no VM breaks both hosts' frame accounting.
	for _, id := range []int{1, 0} {
		if _, err := c.hosts[id].sys.Machine.Alloc(memsim.FastMem, 1, memsim.Owner(9999)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.Result()
	if err == nil || !strings.Contains(err.Error(), "host 0 final invariants") {
		t.Fatalf("Result = %v, want host 0's invariant failure", err)
	}
}

// shutdownTestCluster is bootTestCluster with a third host whose span
// is half committed, booted with eight VMs: best-fit sends VMs 1-2 to
// host 2, VMs 3-6 to host 0 and VMs 7-8 to host 1, so host order and
// VM-id order disagree. Its one event is a shutdown of every VM.
func shutdownTestCluster(t *testing.T, workers int) *Cluster {
	t.Helper()
	sc := &Script{
		Name: "shutdown-order", Seed: 5, Hosts: 3, Rounds: 1, RoundEpochs: 1, Scale: 512,
		Host:      HostDesc{FastFrames: 2048, SlowFrames: 4096},
		Placement: PlacementPressurePack,
		Events:    []Event{{At: 0, Kind: KindShutdown, Count: 8}},
	}
	c, err := NewCluster(sc, Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	c.hosts[2].fastCommitted, c.hosts[2].slowCommitted = 1024, 2048
	if err := c.bootGroup(context.Background(), bootTestGroup(8)); err != nil {
		t.Fatal(err)
	}
	for id, want := range [][]vmm.VMID{{3, 4, 5, 6}, {7, 8}, {1, 2}} {
		if got := hostVMs(c, id); !slices.Equal(got, want) {
			t.Fatalf("host %d runs %v, want %v", id, got, want)
		}
	}
	return c
}

// TestShutdownLowestFailingVM: a shutdown spanning three hosts, two of
// which fail their post-shutdown check, returns the lowest failing VM
// id's error (VM 1 on host 2), not the first failing host's (VM 7 on
// host 1). Each host stops at its own first failure, and the fleet
// books release exactly the VMs that shut down.
func TestShutdownLowestFailingVM(t *testing.T) {
	for _, workers := range []int{1, 4} {
		c := shutdownTestCluster(t, workers)
		for _, id := range []int{2, 1} {
			if _, err := c.hosts[id].sys.Machine.Alloc(memsim.FastMem, 1, memsim.Owner(9999)); err != nil {
				t.Fatal(err)
			}
		}
		err := c.apply(context.Background(), action{ev: 0})
		if err == nil || !strings.Contains(err.Error(), "host 2 after shutdown of VM 1:") {
			t.Fatalf("workers %d: shutdown = %v, want host 2's check failure after VM 1", workers, err)
		}
		down := map[vmm.VMID]bool{1: true, 3: true, 4: true, 5: true, 6: true, 7: true}
		for _, id := range c.order {
			st := c.vms[id]
			_, booked := c.hosts[st.Host].resident[id]
			if st.Down != down[id] || booked == down[id] || (st.Down && st.DownRound != c.round) {
				t.Errorf("workers %d: VM %d down=%v (round %d) booked=%v, want down=%v",
					workers, id, st.Down, st.DownRound, booked, down[id])
			}
			if _, running := c.hosts[st.Host].sys.VMResultByID(id); !running {
				t.Errorf("workers %d: VM %d has no result on host %d", workers, id, st.Host)
			}
		}
		// Host 2 keeps its pre-committed half plus VM 2; host 1 keeps
		// VM 8; host 0 is empty.
		for id, want := range []uint64{0, 512, 1024 + 512} {
			if got := c.hosts[id].fastCommitted; got != want {
				t.Errorf("workers %d: host %d fast committed %d, want %d", workers, id, got, want)
			}
		}
		if got := len(hostVMs(c, 0)); got != 0 {
			t.Errorf("workers %d: host 0 still runs %d VMs", workers, got)
		}
	}
}

// TestShutdownDeterministicAcrossWorkers: a clean count shutdown across
// three hosts, with observability attached, gives the same result,
// metric tree and forwarded event stream at 1 and at 4 workers.
func TestShutdownDeterministicAcrossWorkers(t *testing.T) {
	script := func() *Script {
		return &Script{
			Name: "shutdown-parity", Seed: 9, Hosts: 3, Rounds: 4, RoundEpochs: 2, Scale: 512,
			Host: HostDesc{FastFrames: 2048, SlowFrames: 4096},
			VMs:  []VMGroup{*bootTestGroup(10)},
			Events: []Event{
				{At: 1, Kind: KindShutdown, Count: 9},
				{At: 2, Kind: KindShutdown, VM: 10},
			},
		}
	}
	var snaps [2]obs.Snapshot
	var results, events [2][]byte
	for i, workers := range []int{1, 4} {
		results[i], events[i] = runWithEvents(t, func(h *obs.Obs) (*Result, error) {
			r, err := Run(context.Background(), script(), Options{Workers: workers, Obs: h})
			snaps[i] = h.Metrics.Snapshot()
			return r, err
		})
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Errorf("results differ between 1 and 4 workers:\n%s\nvs\n%s", results[0], results[1])
	}
	if !reflect.DeepEqual(snaps[0], snaps[1]) {
		t.Error("metric snapshots differ between 1 and 4 workers")
	}
	if !bytes.Equal(events[0], events[1]) {
		t.Errorf("event streams differ between 1 and 4 workers (%d vs %d bytes)", len(events[0]), len(events[1]))
	}
	if n := bytes.Count(events[0], []byte(`"vm-shutdown"`)); n != 10 {
		t.Errorf("forwarded %d vm-shutdown events, want 10", n)
	}
	if len(snaps[0].Values) == 0 {
		t.Error("no metrics recorded")
	}
	var r Result
	if err := json.Unmarshal(results[0], &r); err != nil {
		t.Fatal(err)
	}
	hosts := map[int]bool{}
	for _, v := range r.VMs {
		want := 1
		if v.ID == 10 {
			want = 2
		}
		if v.ShutdownRound != want {
			t.Errorf("VM %d shut down at round %d, want %d", v.ID, v.ShutdownRound, want)
		}
		if v.ShutdownRound == 1 {
			hosts[v.Host] = true
		}
	}
	if len(hosts) != 3 {
		t.Errorf("the count shutdown spans hosts %v, want all 3", hosts)
	}
}
