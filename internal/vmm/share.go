package vmm

import (
	"fmt"

	"heteroos/internal/memsim"
	"heteroos/internal/obs"
)

// SharePolicy arbitrates machine frames between VMs. Authorize is called
// on every balloon populate request; policies may trigger reclaim
// (ballooning other VMs) before answering. A policy keeps no books of
// its own: what each VM holds is its grant counters, which
// VMM.CheckInvariants ties to machine frame ownership.
type SharePolicy interface {
	Name() string
	// Authorize returns how many of the want frames the VM may take now.
	Authorize(vm *VM, t memsim.Tier, want uint64) uint64
}

// --- Static ---

// StaticShare authorises anything within the VM's ceiling while free
// frames exist: the single-VM experiments use it so the share layer adds
// no effects.
type StaticShare struct{}

// Name implements SharePolicy.
func (StaticShare) Name() string { return "static" }

// Authorize implements SharePolicy.
func (StaticShare) Authorize(vm *VM, t memsim.Tier, want uint64) uint64 {
	if free := vm.vmm.Machine.FreeFrames(t); want > free {
		want = free
	}
	return want
}

// --- Single-resource max-min ---

// MaxMinShare implements today's VMM default (Section 4.2): every VM is
// guaranteed its reservation per tier; spare capacity is handed out as
// overcommit; when a VM asks for frames within its reservation and the
// tier is exhausted, overcommitted VMs are ballooned back toward their
// reservations. Each tier is arbitrated independently — the paper's
// point is that this cannot couple FastMem and SlowMem fairness.
type MaxMinShare struct{}

// Name implements SharePolicy.
func (MaxMinShare) Name() string { return "max-min" }

// Authorize implements SharePolicy.
func (MaxMinShare) Authorize(vm *VM, t memsim.Tier, want uint64) uint64 {
	m := vm.vmm
	free := m.Machine.FreeFrames(t)
	if free >= want {
		return want
	}
	// Below-reservation requests may reclaim overcommit from others.
	if vm.granted[t] < vm.Spec.Reserved[t] {
		need := want - free
		reclaimOvercommit(m, t, need, vm)
		if free = m.Machine.FreeFrames(t); want > free {
			want = free
		}
		return want
	}
	return free
}

// reclaimOvercommit balloons VMs holding more than their reservation of
// tier t, round-robin, until need frames are free or nothing reclaims.
func reclaimOvercommit(m *VMM, t memsim.Tier, need uint64, exclude *VM) {
	for _, id := range m.order {
		if need == 0 {
			return
		}
		vm := m.vms[id]
		if vm == exclude || vm.Balloon == nil {
			continue
		}
		over := uint64(0)
		if vm.granted[t] > vm.Spec.Reserved[t] {
			over = vm.granted[t] - vm.Spec.Reserved[t]
		}
		if over == 0 {
			continue
		}
		take := over
		if take > need {
			take = need
		}
		target := vm.granted[t] - take
		got := vm.Balloon.BalloonTarget(t, target)
		if got > need {
			got = need
		}
		need -= got
	}
}

// --- Weighted DRF ---

// DRFShare arbitrates with weighted Dominant Resource Fairness (Ghodsi
// et al., NSDI'11) extended with per-resource weights, the paper's
// Algorithm 1 (Section 4.2). Each memory type is a resource. A VM's
// allocation vector is its grant counters and the capacities are the
// machine's tier sizes, so the policy is a pure function of state the
// VMM already owns. A request is granted while the tier has free frames
// (Algorithm 1's C + D_i <= R check). When the tier runs short, the
// policy balloons the VM with the highest dominant share (if that is
// not the requester) before retrying. The weights default to the
// paper's static FastMem=2, SlowMem=1, so that small FastMem holdings
// still register as dominant. MaxMinShare is the single-resource
// baseline DRF replaces.
type DRFShare struct {
	machine *memsim.Machine
	weights [memsim.NumTiers]float64
	// obs, when attached, carries the rebalance probes.
	obs *drfProbes
}

// NewDRFShare builds the policy over the machine's capacities. Every
// weight must be positive.
func NewDRFShare(machine *memsim.Machine, weights [memsim.NumTiers]float64) (*DRFShare, error) {
	for t, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("vmm: non-positive DRF weight for %v", memsim.Tier(t))
		}
	}
	return &DRFShare{machine: machine, weights: weights}, nil
}

// DefaultDRFWeights is the paper's static weighting.
func DefaultDRFWeights() [memsim.NumTiers]float64 {
	var w [memsim.NumTiers]float64
	w[memsim.FastMem] = 2
	w[memsim.SlowMem] = 1
	return w
}

// Name implements SharePolicy.
func (*DRFShare) Name() string { return "weighted-DRF" }

// Authorize implements SharePolicy.
func (d *DRFShare) Authorize(vm *VM, t memsim.Tier, want uint64) uint64 {
	m := vm.vmm
	avail := m.Machine.FreeFrames(t)
	if avail >= want {
		return want
	}
	// Capacity short: Algorithm 1's reclaim branch. Balloon the VM with
	// the highest dominant share — unless the requester itself already
	// dominates, in which case it must live within its means.
	var victim *VM
	victimShare := d.DominantShare(vm)
	for _, id := range m.order {
		cand := m.vms[id]
		if cand == vm || cand.Balloon == nil {
			continue
		}
		if s := d.DominantShare(cand); s > victimShare {
			victim, victimShare = cand, s
		}
	}
	if victim != nil {
		need := want - avail
		// Do not balloon below the victim's reservation.
		floor := victim.Spec.Reserved[t]
		target := floor
		if victim.granted[t] > need && victim.granted[t]-need > floor {
			target = victim.granted[t] - need
		}
		if victim.granted[t] > target {
			released := victim.Balloon.BalloonTarget(t, target)
			if d.obs != nil {
				d.obs.rebalances.Inc()
				d.obs.ballooned.Add(released)
				d.obs.scope.Emit(obs.EvDRFRebalance, obs.DirNone, uint8(t),
					0, released, uint64(victim.Spec.ID), 0)
			}
		}
		avail = m.Machine.FreeFrames(t)
	}
	if want > avail {
		want = avail
	}
	return want
}

// DominantShare computes the VM's s_i = max_t (w_t * granted_t / R_t):
// the largest weighted share it holds of any tier. A VM that holds no
// frames, such as a destroyed one, has share zero.
func (d *DRFShare) DominantShare(vm *VM) float64 {
	s := 0.0
	for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
		frames := d.machine.Frames(t)
		if frames == 0 {
			continue
		}
		if share := d.weights[t] * float64(vm.granted[t]) / float64(frames); share > s {
			s = share
		}
	}
	return s
}
