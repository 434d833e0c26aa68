// Package vmm implements the hypervisor side of HeteroOS (Sections 4.1
// and 4.2): per-VM machine-frame management with balloon back-ends, the
// access-bit hotness scanner with its TLB-flush cost model, the
// VMM-exclusive (HeteroVisor-style) migration engine used as the
// baseline, the guest-guided coordinated tracking mode, and pluggable
// multi-VM share policies (static, single-resource max-min, and weighted
// DRF).
package vmm

import (
	"fmt"

	"heteroos/internal/guestos"
	"heteroos/internal/memsim"
)

// VMID identifies a guest VM. It doubles as the machine frame owner id.
type VMID int32

// VMSpec describes a VM's memory contract: the boot-time reservation
// ("minimum capacity that is reserved during the boot"), the overcommit
// ceiling ("maximum capacity that can be dynamically allocated"), and
// the per-tier weights used by weighted DRF.
type VMSpec struct {
	ID       VMID
	Reserved [memsim.NumTiers]uint64
	MaxPages [memsim.NumTiers]uint64
}

// BalloonDriver is the guest-side balloon front-end the VMM calls to
// reclaim memory. *guestos.OS implements it.
type BalloonDriver interface {
	BalloonTarget(t memsim.Tier, targetPages uint64) uint64
}

// GuestView is the guest state the VMM can observe and manipulate:
// access bits (via the hardware page table in the real system), page
// snapshots, backing-frame swaps (transparent migration), and the
// coordinated-mode tracking list. *guestos.OS implements it.
//
// Access and write bits are read a 64-page word at a time, the way they
// live in the guest's packed page-store bitmaps: in every word method,
// word w covers PFNs [w*64, w*64+64) and bit i of mask (and of the
// result) stands for PFN w*64+i.
type GuestView interface {
	NumPFNs() uint64
	Snapshot(pfn guestos.PFN) guestos.PageSnapshot
	SetBackingMFN(pfn guestos.PFN, mfn memsim.MFN)
	TrackingList() []guestos.PFN
	// ScanHeat/SetScanHeat store the scanner's hotness history in the
	// page metadata so it follows pages across guest migrations.
	ScanHeat(pfn guestos.PFN) uint8
	SetScanHeat(pfn guestos.PFN, h uint8)
	// Write-activity tracking for the write-aware extension.
	ScanWriteHeat(pfn guestos.PFN) uint8
	SetScanWriteHeat(pfn guestos.PFN, h uint8)
	// TakeScanAccessedWord returns and clears the scan-accessed bits of
	// word w under mask (batched test-and-clear).
	TakeScanAccessedWord(w int, mask uint64) uint64
	// ScanHeatNonzeroWord reports which pages of word w hold nonzero
	// scan heat: pages the scan must still visit to decay, even when
	// unreferenced.
	ScanHeatNonzeroWord(w int, mask uint64) uint64
	// TakeScanWrittenWord / ScanWriteHeatNonzeroWord are the write-bit
	// equivalents, used when write tracking is on.
	TakeScanWrittenWord(w int, mask uint64) uint64
	ScanWriteHeatNonzeroWord(w int, mask uint64) uint64
}

var _ GuestView = (*guestos.OS)(nil)

// VM is the hypervisor's per-guest state.
type VM struct {
	Spec    VMSpec
	vmm     *VMM
	granted [memsim.NumTiers]uint64
	// Guest hooks, bound after the guest boots.
	Balloon BalloonDriver
	View    GuestView
	// RefusePopulate is the fault-injection hook: while set, the balloon
	// back-end refuses every populate request from this VM (the guest
	// sees a zero grant and surfaces it as a balloon-refused shortfall).
	RefusePopulate bool
}

// Granted reports the frames currently granted to the VM in tier t.
func (v *VM) Granted(t memsim.Tier) uint64 { return v.granted[t] }

// owner converts the VM id to a machine owner tag.
func (v *VM) owner() memsim.Owner { return memsim.Owner(v.Spec.ID) }

// VMM is the hypervisor.
type VMM struct {
	Machine *memsim.Machine
	share   SharePolicy
	vms     map[VMID]*VM
	order   []VMID
}

// New builds a VMM over machine with the given share policy.
func New(machine *memsim.Machine, share SharePolicy) *VMM {
	return &VMM{Machine: machine, share: share, vms: make(map[VMID]*VM)}
}

// SharePolicyName reports the active policy.
func (m *VMM) SharePolicyName() string { return m.share.Name() }

// CreateVM registers a VM. The reservation is admission-checked against
// total capacity minus existing reservations.
func (m *VMM) CreateVM(spec VMSpec) (*VM, error) {
	if spec.ID <= 0 {
		return nil, fmt.Errorf("vmm: VM id must be positive (owner 0 is reserved)")
	}
	if _, ok := m.vms[spec.ID]; ok {
		return nil, fmt.Errorf("vmm: VM %d already exists", spec.ID)
	}
	for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
		if spec.MaxPages[t] < spec.Reserved[t] {
			return nil, fmt.Errorf("vmm: VM %d max < reserved for %v", spec.ID, t)
		}
		var reservedTotal uint64
		for _, vm := range m.vms {
			reservedTotal += vm.Spec.Reserved[t]
		}
		if reservedTotal+spec.Reserved[t] > m.Machine.Frames(t) {
			return nil, fmt.Errorf("vmm: %v reservations exceed capacity", t)
		}
	}
	vm := &VM{Spec: spec, vmm: m}
	m.vms[spec.ID] = vm
	m.order = append(m.order, spec.ID)
	if err := m.share.Register(vm); err != nil {
		delete(m.vms, spec.ID)
		m.order = m.order[:len(m.order)-1]
		return nil, err
	}
	return vm, nil
}

// DestroyVM deregisters a departed VM. The guest must have been torn
// down first: the VM may hold no granted frames (the balloon unwound and
// every machine frame back in the pool), so the share policy drops only
// zero-valued state and the freed reservation is immediately available
// to future CreateVM admission checks.
func (m *VMM) DestroyVM(id VMID) error {
	vm, ok := m.vms[id]
	if !ok {
		return fmt.Errorf("vmm: DestroyVM: no VM %d", id)
	}
	for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
		if vm.granted[t] != 0 {
			return fmt.Errorf("vmm: DestroyVM: VM %d still holds %d %v frames", id, vm.granted[t], t)
		}
	}
	m.share.Unregister(vm)
	delete(m.vms, id)
	for i, oid := range m.order {
		if oid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	vm.vmm = nil
	return nil
}

// VMByID returns a registered VM.
func (m *VMM) VMByID(id VMID) (*VM, bool) {
	vm, ok := m.vms[id]
	return vm, ok
}

// VMs returns the VMs in creation order.
func (m *VMM) VMs() []*VM {
	out := make([]*VM, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.vms[id])
	}
	return out
}

// --- guestos.FrameSource implementation (balloon back-end) ---

// Populate grants up to want frames of tier t, as authorised by the
// share policy. When the policy authorises more than the machine has
// free, the policy is responsible for reclaiming (ballooning) first.
func (v *VM) Populate(t memsim.Tier, want uint64) []memsim.MFN {
	if want == 0 || v.RefusePopulate {
		return nil
	}
	if room := v.Spec.MaxPages[t] - v.granted[t]; want > room {
		want = room
	}
	if want == 0 {
		return nil
	}
	n := v.vmm.share.Authorize(v, t, want)
	if n == 0 {
		return nil
	}
	if free := v.vmm.Machine.FreeFrames(t); n > free {
		n = free
	}
	if n == 0 {
		return nil
	}
	mfns, err := v.vmm.Machine.Alloc(t, n, v.owner())
	if err != nil {
		return nil
	}
	v.granted[t] += n
	v.vmm.share.OnGrant(v, t, n)
	return mfns
}

// PopulateAny grants frames of whatever tier is available, slow-first:
// the VMM-exclusive model reserves FastMem for hot-page migration
// rather than spending it on bulk reservations.
func (v *VM) PopulateAny(want uint64) []memsim.MFN {
	out := v.Populate(memsim.SlowMem, want)
	if uint64(len(out)) < want {
		out = append(out, v.Populate(memsim.FastMem, want-uint64(len(out)))...)
	}
	return out
}

// Release returns frames to the machine.
func (v *VM) Release(mfns []memsim.MFN) {
	var counts [memsim.NumTiers]uint64
	for _, mfn := range mfns {
		counts[v.vmm.Machine.TierOf(mfn)]++
	}
	v.vmm.Machine.Free(mfns, v.owner())
	for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
		if counts[t] > v.granted[t] {
			panic(fmt.Sprintf("vmm: VM %d releasing more %v than granted", v.Spec.ID, t))
		}
		v.granted[t] -= counts[t]
		v.vmm.share.OnRelease(v, t, counts[t])
	}
}

// allocForMigration takes a frame for migration use, bypassing the share
// policy: migration rearranges a VM's existing footprint rather than
// growing it (the granted counter still moves so accounting stays true).
func (v *VM) allocForMigration(t memsim.Tier) (memsim.MFN, bool) {
	mfn, err := v.vmm.Machine.AllocOne(t, v.owner())
	if err != nil {
		return memsim.NilMFN, false
	}
	v.granted[t]++
	v.vmm.share.OnGrant(v, t, 1)
	return mfn, true
}

// AdoptFrames grants exactly n frames of tier t to the VM, bypassing
// the share policy's Authorize gate the same way allocForMigration
// does: adoption re-materializes a footprint the VM already earned on
// another host (cross-host live migration), so admission was decided by
// the destination's placement policy, not by steady-state sharing. The
// granted counter and the share book still move, keeping
// CheckInvariants and DRF accounting exact. It is all-or-nothing: on
// shortfall it returns an error and grants nothing.
func (v *VM) AdoptFrames(t memsim.Tier, n uint64) ([]memsim.MFN, error) {
	if n == 0 {
		return nil, nil
	}
	if room := v.Spec.MaxPages[t] - v.granted[t]; n > room {
		return nil, fmt.Errorf("vmm: VM %d adopting %d %v frames exceeds reservation (room %d)",
			v.Spec.ID, n, t, room)
	}
	mfns, err := v.vmm.Machine.Alloc(t, n, v.owner())
	if err != nil {
		return nil, fmt.Errorf("vmm: VM %d adopting %d %v frames: %w", v.Spec.ID, n, t, err)
	}
	v.granted[t] += n
	v.vmm.share.OnGrant(v, t, n)
	return mfns, nil
}

// freeFromMigration returns a single frame after migration.
func (v *VM) freeFromMigration(mfn memsim.MFN) {
	t := v.vmm.Machine.TierOf(mfn)
	v.vmm.Machine.Free([]memsim.MFN{mfn}, v.owner())
	v.granted[t]--
	v.vmm.share.OnRelease(v, t, 1)
}

// CheckInvariants confirms the per-VM grant counters match the machine's
// ownership records.
func (m *VMM) CheckInvariants() error {
	var granted [memsim.NumTiers]uint64
	for _, vm := range m.vms {
		for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
			granted[t] += vm.granted[t]
		}
	}
	for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
		if granted[t] != m.Machine.AllocatedFrames(t) {
			return fmt.Errorf("vmm: %v grants %d != machine allocated %d",
				t, granted[t], m.Machine.AllocatedFrames(t))
		}
	}
	return m.Machine.CheckInvariants()
}
