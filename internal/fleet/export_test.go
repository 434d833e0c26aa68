package fleet

import "heteroos/internal/core"

// HostSum sums every VM result accounted to one host: its live VMs
// plus its departed ones. Migrated-out stubs carry zero results by
// construction, so a VM that passed through contributes nothing here —
// its lifetime total lives on its final host only.
func (r *Result) HostSum(id int) core.VMResult {
	var sum core.VMResult
	sys := r.HostRuns[id].Sys
	for _, set := range [][]*core.VMInstance{sys.VMs, sys.Departed} {
		for _, inst := range set {
			AddResults(&sum, &inst.Res)
		}
	}
	return sum
}

// FleetSum sums every VM's lifetime result. Because migration moves
// the accumulating result with the VM and leaves zero stubs behind,
// this equals the sum of HostSum over all hosts exactly — the
// reconciliation the fleet tests pin.
func (r *Result) FleetSum() core.VMResult {
	var sum core.VMResult
	for i := range r.VMs {
		AddResults(&sum, &r.VMs[i].Res)
	}
	return sum
}
