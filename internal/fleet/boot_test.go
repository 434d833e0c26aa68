package fleet

import (
	"context"
	"slices"
	"strings"
	"testing"

	"heteroos/internal/memsim"
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
