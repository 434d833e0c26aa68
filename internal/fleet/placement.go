package fleet

import (
	"fmt"

	"heteroos/internal/vmm"
)

// HostView is a placement policy's read-only view of one host. The
// committed figures are span accounting — the sum of resident VMs'
// per-tier maxima — not live allocation: a VM can always balloon up to
// its span, so placing against commitments is what guarantees an
// accepted VM (or migration) can never be starved of frames it was
// promised. Fleet placement is therefore a pure function of this
// bookkeeping, independent of machine state and of worker count.
type HostView struct {
	ID     int
	Failed bool
	// FastFrames / SlowFrames is the machine shape.
	FastFrames, SlowFrames uint64
	// FastCommitted / SlowCommitted sums resident VM spans.
	FastCommitted, SlowCommitted uint64
}

// Fits reports whether a VM span fits in the host's uncommitted room.
func (h *HostView) Fits(fast, slow uint64) bool {
	return !h.Failed &&
		h.FastFrames-h.FastCommitted >= fast &&
		h.SlowFrames-h.SlowCommitted >= slow
}

// fastHeadroom is the uncommitted FastMem span.
func (h *HostView) fastHeadroom() uint64 { return h.FastFrames - h.FastCommitted }

// dominantLoad is the host's dominant committed fraction across tiers
// (the DRF lens applied to hosts instead of VMs).
func (h *HostView) dominantLoad() float64 {
	f := float64(h.FastCommitted) / float64(h.FastFrames)
	if s := float64(h.SlowCommitted) / float64(h.SlowFrames); s > f {
		return s
	}
	return f
}

// VMView is a placement policy's view of one running VM.
type VMView struct {
	ID   vmm.VMID
	Host int
	// FastPages / SlowPages is the VM's span.
	FastPages, SlowPages uint64
}

// Move asks the fleet to live-migrate one VM to another host.
type Move struct {
	VM vmm.VMID
	To int
}

// Placement decides where VMs run. Implementations must be
// deterministic pure functions of their arguments — ties always break
// toward the lowest host id — because placement decisions feed the
// fleet's byte-identical-across-workers contract.
type Placement interface {
	Name() string
	// PlaceBoot picks the host for a new (or evacuating) VM, or -1 if
	// no host fits. It must not modify hosts: the fleet reuses one
	// snapshot across a whole boot group or evacuation.
	PlaceBoot(vm VMView, hosts []HostView) int
	// Rebalance proposes live migrations given the whole fleet's
	// state; it runs once per round before hosts step. vms is sorted
	// by id and holds only running (not finished, not failed-host)
	// VMs.
	Rebalance(hosts []HostView, vms []VMView) []Move
}

// Placement policy names accepted by PlacementByName and fleet
// scripts.
const (
	PlacementFirstFit     = "first-fit"
	PlacementPressurePack = "pressure-pack"
	PlacementDRFRebalance = "drf-rebalance"
)

// PlacementNames lists the built-in placement policies.
func PlacementNames() []string {
	return []string{PlacementFirstFit, PlacementPressurePack, PlacementDRFRebalance}
}

// PlacementByName resolves a placement policy name.
func PlacementByName(name string) (Placement, error) {
	switch name {
	case PlacementFirstFit:
		return firstFit{}, nil
	case PlacementPressurePack:
		return pressurePack{}, nil
	case PlacementDRFRebalance:
		return drfRebalance{}, nil
	default:
		return nil, fmt.Errorf("fleet: unknown placement policy %q (have %v)", name, PlacementNames())
	}
}

// firstFit boots onto the lowest-id host with room and never
// rebalances. The baseline: cheap, stable, and fragmenting.
type firstFit struct{}

func (firstFit) Name() string { return PlacementFirstFit }

func (firstFit) PlaceBoot(vm VMView, hosts []HostView) int {
	for i := range hosts {
		if hosts[i].Fits(vm.FastPages, vm.SlowPages) {
			return hosts[i].ID
		}
	}
	return -1
}

func (firstFit) Rebalance([]HostView, []VMView) []Move { return nil }

// pressurePack is FastMem-pressure-aware bin-packing: boots best-fit
// on the scarce tier (the feasible host left with the least FastMem
// headroom), concentrating load so whole hosts stay empty, and
// rebalances by draining the fast tier of hosts packed past the
// high-water mark into the emptiest feasible host.
type pressurePack struct{}

// packHighWater is the committed-FastMem fraction beyond which
// rebalancing starts pulling VMs off a host.
const packHighWater = 0.95

// packMaxMovesPerRound bounds migration churn per rebalance pass.
const packMaxMovesPerRound = 4

func (pressurePack) Name() string { return PlacementPressurePack }

func (pressurePack) PlaceBoot(vm VMView, hosts []HostView) int {
	best, bestLeft := -1, uint64(0)
	for i := range hosts {
		h := &hosts[i]
		if !h.Fits(vm.FastPages, vm.SlowPages) {
			continue
		}
		left := h.fastHeadroom() - vm.FastPages
		if best == -1 || left < bestLeft {
			best, bestLeft = h.ID, left
		}
	}
	return best
}

func (pressurePack) Rebalance(hosts []HostView, vms []VMView) []Move {
	var moves []Move
	for hi := range hosts {
		src := &hosts[hi]
		if src.Failed || float64(src.FastCommitted) < packHighWater*float64(src.FastFrames) {
			continue
		}
		// Drain the smallest-span VM (cheapest migration); ties break
		// toward the lowest VM id because vms is id-sorted.
		var pick *VMView
		for vi := range vms {
			v := &vms[vi]
			if v.Host != src.ID {
				continue
			}
			if pick == nil || v.FastPages < pick.FastPages {
				pick = v
			}
		}
		if pick == nil {
			continue
		}
		// Target: the feasible host with the most FastMem headroom; it
		// must end up strictly less pressured than the source was, or
		// the move just trades places.
		best := -1
		var bestRoom uint64
		for ti := range hosts {
			dst := &hosts[ti]
			if dst.ID == src.ID || !dst.Fits(pick.FastPages, pick.SlowPages) {
				continue
			}
			if room := dst.fastHeadroom(); best == -1 || room > bestRoom {
				best, bestRoom = dst.ID, room
			}
		}
		if best == -1 || bestRoom-pick.FastPages <= src.fastHeadroom() {
			continue
		}
		moves = append(moves, Move{VM: pick.ID, To: best})
		src.FastCommitted -= pick.FastPages
		src.SlowCommitted -= pick.SlowPages
		dst := &hosts[best]
		dst.FastCommitted += pick.FastPages
		dst.SlowCommitted += pick.SlowPages
		pick.Host = best
		if len(moves) >= packMaxMovesPerRound {
			break
		}
	}
	return moves
}

// drfRebalance boots like first-fit but continuously levels dominant
// load across hosts: while the spread between the most- and
// least-loaded host exceeds the threshold, it migrates the smallest
// movable VM off the most-loaded host onto the least-loaded one — DRF
// fairness applied fleet-wide instead of within one VMM.
type drfRebalance struct{}

// drfSpread is the dominant-load gap that triggers a leveling move.
const drfSpread = 0.25

// drfMaxMovesPerRound bounds leveling churn per rebalance pass.
const drfMaxMovesPerRound = 4

func (drfRebalance) Name() string { return PlacementDRFRebalance }

func (drfRebalance) PlaceBoot(vm VMView, hosts []HostView) int {
	return firstFit{}.PlaceBoot(vm, hosts)
}

func (drfRebalance) Rebalance(hosts []HostView, vms []VMView) []Move {
	var moves []Move
	for len(moves) < drfMaxMovesPerRound {
		hi, lo := -1, -1
		for i := range hosts {
			h := &hosts[i]
			if h.Failed {
				continue
			}
			if hi == -1 || h.dominantLoad() > hosts[hi].dominantLoad() {
				hi = i
			}
			if lo == -1 || h.dominantLoad() < hosts[lo].dominantLoad() {
				lo = i
			}
		}
		if hi == -1 || lo == -1 || hi == lo {
			return moves
		}
		src, dst := &hosts[hi], &hosts[lo]
		if src.dominantLoad()-dst.dominantLoad() <= drfSpread {
			return moves
		}
		var pick *VMView
		for vi := range vms {
			v := &vms[vi]
			if v.Host != src.ID || !dst.Fits(v.FastPages, v.SlowPages) {
				continue
			}
			if pick == nil || v.FastPages+v.SlowPages < pick.FastPages+pick.SlowPages {
				pick = v
			}
		}
		if pick == nil {
			return moves
		}
		moves = append(moves, Move{VM: pick.ID, To: dst.ID})
		src.FastCommitted -= pick.FastPages
		src.SlowCommitted -= pick.SlowPages
		dst.FastCommitted += pick.FastPages
		dst.SlowCommitted += pick.SlowPages
		pick.Host = dst.ID
	}
	return moves
}
