package fleet

import (
	"context"
	"reflect"
	"testing"
)

func TestFirstFitPlaceBoot(t *testing.T) {
	vm := VMView{ID: 1, FastPages: 4, SlowPages: 4}
	hosts := []HostView{
		{ID: 0, FastFrames: 10, SlowFrames: 10, FastCommitted: 8},
		{ID: 1, FastFrames: 10, SlowFrames: 10},
		{ID: 2, FastFrames: 10, SlowFrames: 10},
	}
	if got := (firstFit{}).PlaceBoot(vm, hosts); got != 1 {
		t.Errorf("first-fit picked host %d, want the lowest-id fitting host 1", got)
	}
	hosts[0].FastCommitted = 0
	if got := (firstFit{}).PlaceBoot(vm, hosts); got != 0 {
		t.Errorf("first-fit picked host %d, want 0", got)
	}
	hosts[0].Failed = true
	if got := (firstFit{}).PlaceBoot(vm, hosts); got != 1 {
		t.Errorf("first-fit picked failed host: got %d, want 1", got)
	}
	for i := range hosts {
		hosts[i].FastCommitted = 8
	}
	if got := (firstFit{}).PlaceBoot(vm, hosts); got != -1 {
		t.Errorf("first-fit found room on a full fleet: got %d", got)
	}
	if moves := (firstFit{}).Rebalance(hosts, nil); moves != nil {
		t.Errorf("first-fit should never rebalance, got %v", moves)
	}
}

func TestPressurePackPlaceBootBestFit(t *testing.T) {
	vm := VMView{ID: 1, FastPages: 10, SlowPages: 5}
	hosts := []HostView{
		{ID: 0, FastFrames: 100, SlowFrames: 100, FastCommitted: 50},
		{ID: 1, FastFrames: 100, SlowFrames: 100, FastCommitted: 88},
		{ID: 2, FastFrames: 100, SlowFrames: 100, FastCommitted: 90},
		// Tightest on fast, but the slow span does not fit.
		{ID: 3, FastFrames: 100, SlowFrames: 100, FastCommitted: 90, SlowCommitted: 97},
	}
	if got := (pressurePack{}).PlaceBoot(vm, hosts); got != 2 {
		t.Errorf("pressure-pack picked host %d, want the tightest feasible host 2", got)
	}
}

func TestPressurePackRebalanceDrainsHighWater(t *testing.T) {
	hosts := []HostView{
		{ID: 0, FastFrames: 100, SlowFrames: 100, FastCommitted: 96, SlowCommitted: 50},
		{ID: 1, FastFrames: 100, SlowFrames: 100, FastCommitted: 10, SlowCommitted: 10},
	}
	vms := []VMView{
		{ID: 1, Host: 0, FastPages: 64, SlowPages: 30},
		{ID: 2, Host: 0, FastPages: 32, SlowPages: 20},
		{ID: 3, Host: 1, FastPages: 10, SlowPages: 10},
	}
	moves := (pressurePack{}).Rebalance(hosts, vms)
	want := []Move{{VM: 2, To: 1}}
	if !reflect.DeepEqual(moves, want) {
		t.Errorf("rebalance = %v, want %v (drain the smallest VM off the packed host)", moves, want)
	}
}

func TestPressurePackRebalanceLeavesBalancedFleet(t *testing.T) {
	hosts := []HostView{
		{ID: 0, FastFrames: 100, SlowFrames: 100, FastCommitted: 60},
		{ID: 1, FastFrames: 100, SlowFrames: 100, FastCommitted: 50},
	}
	vms := []VMView{
		{ID: 1, Host: 0, FastPages: 60},
		{ID: 2, Host: 1, FastPages: 50},
	}
	if moves := (pressurePack{}).Rebalance(hosts, vms); len(moves) != 0 {
		t.Errorf("no host is past the high-water mark, yet rebalance proposed %v", moves)
	}
}

func TestDRFRebalanceLevelsDominantLoad(t *testing.T) {
	hosts := []HostView{
		{ID: 0, FastFrames: 100, SlowFrames: 100, FastCommitted: 80, SlowCommitted: 20},
		{ID: 1, FastFrames: 100, SlowFrames: 100, FastCommitted: 10, SlowCommitted: 5},
	}
	vms := []VMView{
		{ID: 1, Host: 0, FastPages: 50, SlowPages: 10},
		{ID: 2, Host: 0, FastPages: 30, SlowPages: 10},
		{ID: 3, Host: 1, FastPages: 10, SlowPages: 5},
	}
	moves := (drfRebalance{}).Rebalance(hosts, vms)
	want := []Move{{VM: 2, To: 1}}
	if !reflect.DeepEqual(moves, want) {
		t.Errorf("rebalance = %v, want %v (one leveling move closes the spread)", moves, want)
	}
}

func TestDRFRebalanceRespectsSpreadThreshold(t *testing.T) {
	hosts := []HostView{
		{ID: 0, FastFrames: 100, SlowFrames: 100, FastCommitted: 40},
		{ID: 1, FastFrames: 100, SlowFrames: 100, FastCommitted: 25},
	}
	vms := []VMView{
		{ID: 1, Host: 0, FastPages: 40},
		{ID: 2, Host: 1, FastPages: 25},
	}
	if moves := (drfRebalance{}).Rebalance(hosts, vms); len(moves) != 0 {
		t.Errorf("spread 0.15 is under the threshold, yet rebalance proposed %v", moves)
	}
}

func TestPlacementByName(t *testing.T) {
	for _, name := range PlacementNames() {
		p, err := PlacementByName(name)
		if err != nil {
			t.Errorf("PlacementByName(%q): %v", name, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("PlacementByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := PlacementByName("round-robin"); err == nil {
		t.Error("unknown placement name should error")
	}
}

// viewChecker wraps a placement policy and fails the test whenever a
// call receives host views that differ from a fresh rebuild of the
// cluster's books.
type viewChecker struct {
	Placement
	t                *testing.T
	c                *Cluster
	boots, rebalance int
}

func (v *viewChecker) check(call string, hosts []HostView) {
	if len(hosts) != len(v.c.hosts) {
		v.t.Fatalf("%s got %d views for %d hosts", call, len(hosts), len(v.c.hosts))
	}
	for i, h := range v.c.hosts {
		if want := h.view(); hosts[i] != want {
			v.t.Errorf("round %d %s: host %d view %+v, fresh %+v", v.c.round, call, i, hosts[i], want)
		}
	}
}

func (v *viewChecker) PlaceBoot(vm VMView, hosts []HostView) int {
	v.check("PlaceBoot", hosts)
	v.boots++
	return v.Placement.PlaceBoot(vm, hosts)
}

func (v *viewChecker) Rebalance(hosts []HostView, vms []VMView) []Move {
	v.check("Rebalance", hosts)
	v.rebalance++
	return v.Placement.Rebalance(hosts, vms)
}

// TestPlacementViewsMatchFreshRebuild: the views a placement policy is
// handed, refreshed entry by entry as VMs are admitted and evacuated,
// always equal a fresh snapshot of every host's books. A boot group
// fills hosts partway through, then a host failure's evacuees fill
// their targets.
func TestPlacementViewsMatchFreshRebuild(t *testing.T) {
	for _, name := range PlacementNames() {
		t.Run(name, func(t *testing.T) {
			sc := &Script{
				Name: "views", Seed: 3, Hosts: 4, Rounds: 3, RoundEpochs: 1, Scale: 512,
				Host:      HostDesc{FastFrames: 2048, SlowFrames: 4096},
				Placement: name,
				Events: []Event{
					{At: 0, Kind: KindBoot, Boot: bootTestGroup(10)},
					{At: 1, Kind: KindHostFail, Host: 0},
				},
			}
			c, err := NewCluster(sc, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			vc := &viewChecker{Placement: c.place, t: t, c: c}
			c.place = vc
			for c.round < sc.Rounds {
				if err := c.StepRound(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			if vc.boots < 10 || vc.rebalance != sc.Rounds {
				t.Errorf("%d PlaceBoot and %d Rebalance calls, want >= 10 and %d", vc.boots, vc.rebalance, sc.Rounds)
			}
			filled := false
			for _, m := range c.migrations {
				if h := c.hosts[m.To]; m.Evacuation && h.fastCommitted == h.sys.Cfg.FastFrames {
					filled = true
				}
			}
			if !filled {
				t.Errorf("no evacuation filled its target (migrations %+v)", c.migrations)
			}
		})
	}
}
