// Cross-host live migration: a VM departs one System as a serialized
// VMImage and re-materializes on another, carrying its full mutable
// state — guest OS structures, page heat, workload cursor, accumulated
// results — across the move. A VMImage is a one-VM checkpoint: its vm
// section is written and read back after a fresh boot by the
// checkpoint's one per-VM layout, vmState. The one addition is the p2m section,
// through which the image's machine-frame bindings are remapped onto
// frames adopted from the destination host, tier-for-tier, so the
// guest's physical-page layout (and with it the heat profile) survives
// even though the backing MFNs are necessarily different.
package core

import (
	"bytes"
	"fmt"
	"slices"

	"heteroos/internal/guestos"
	"heteroos/internal/memsim"
	"heteroos/internal/obs"
	"heteroos/internal/snapshot"
	"heteroos/internal/vmm"
)

// VMImage is one VM's serialized migratable state: everything a
// destination host needs to continue the guest bit-for-bit, minus the
// things only the fleet layer knows (which workload type to construct,
// what spans to reserve — those travel in the VMConfig the caller
// presents to ImmigrateVM).
//
// Wire format: a snapshot container (magic, named length-prefixed
// sections, CRC64 trailer) with two sections
//
//	p2m — backed pages in ascending PFN order: (pfn, mfn, tier); the
//	      source-host MFNs recorded here are what ImmigrateVM rebinds
//	      onto destination frames
//	vm  — the VM's state in a checkpoint's vm<ID> layout (vmState)
//
// Images live only in memory between EmigrateVM and ImmigrateVM, so
// the layout carries no compatibility promise.
type VMImage struct {
	// ID is the migrating VM's identity, preserved across hosts.
	ID vmm.VMID
	// Pages is the per-tier machine-frame footprint the VM carries; the
	// destination must adopt exactly this many frames per tier.
	Pages [memsim.NumTiers]uint64
	// Data is the snapshot container described above.
	Data []byte
}

// Frames reports the image's total machine-frame footprint.
func (img *VMImage) Frames() uint64 {
	var n uint64
	for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
		n += img.Pages[t]
	}
	return n
}

// EmigrateVM captures a live VM into a VMImage and detaches it from
// this host. The ID is retired into Departed as a migrated-out stub
// (zero result — the real, still-accumulating result travels in the
// image), so results stay unambiguous and the ID can only return via
// ImmigrateVM.
//
// The VM must still be running (shut finished VMs down instead — their
// result is final and moving them buys nothing). Call only between
// epochs.
func (s *System) EmigrateVM(id vmm.VMID) (*VMImage, error) {
	inst, ok := s.instByID(id)
	if !ok {
		return nil, fmt.Errorf("core: EmigrateVM: no live VM %d", id)
	}
	if inst.Done {
		return nil, fmt.Errorf("core: EmigrateVM: VM %d has finished; shut it down instead", id)
	}

	img := &VMImage{ID: id}
	for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
		img.Pages[t] = inst.VM.Granted(t)
	}
	var buf bytes.Buffer
	sw, err := snapshot.NewWriter(&buf)
	if err != nil {
		return nil, err
	}
	if err := sw.State("p2m", func(c *snapshot.Codec) error {
		return s.p2mState(c, inst, nil, nil)
	}); err != nil {
		return nil, err
	}
	if err := sw.State("vm", func(c *snapshot.Codec) error {
		return s.vmState(c, inst, nil)
	}); err != nil {
		return nil, fmt.Errorf("core: EmigrateVM VM %d: %w", id, err)
	}
	if err := sw.Close(); err != nil {
		return nil, err
	}
	img.Data = buf.Bytes()

	// Unlike ShutdownVM, the result is NOT finalised (the VM is still
	// running; its result continues on the destination) and the Departed
	// stub carries a zero result so the per-host sums never double-count
	// a migrant.
	released, err := s.detach(inst)
	if err != nil {
		return nil, fmt.Errorf("core: EmigrateVM VM %d: %w", id, err)
	}
	stub := &VMInstance{ID: id, Done: true, MigratedOut: true}
	stub.Clock.Restore(inst.Clock.Now())
	s.Departed = append(s.Departed, stub)
	if s.sysScope != nil {
		s.sysScope.Emit(obs.EvVMMigrateOut, obs.DirNone, obs.TierNone, 0, released, uint64(id), 0)
	}
	return img, nil
}

// ImmigrateVM re-materializes a migrated VM on this host. vc must
// describe the VM exactly as its original boot did (same ID, mode,
// spans, reservations) with a freshly constructed workload of the same
// type and seed — the fleet layer reconstructs this from its own VM
// records, just as checkpoint front-ends reconstruct Config. The guest
// is booted silently (no observability, like RestoreSystem's reboot),
// its transient boot footprint dropped, the image's per-tier frame
// counts adopted from this host's pools, and the vm section overlaid by
// vmState with every guest page rebound old-MFN→new-MFN. The VM joins
// the lockstep from the next epoch with clock, heat profile, workload
// cursor, and accumulated result intact.
//
// A VM that previously migrated OUT of this host may migrate back in
// (the migrated-out stub is un-retired once the VM is in); an ID
// retired by a real shutdown stays retired. On error the host is left
// as it was, stub included.
func (s *System) ImmigrateVM(vc VMConfig, img *VMImage) (inst *VMInstance, err error) {
	// The boot-overlay path executes guest code paths that can panic via
	// *guestos.GuestPanic on a genuinely overloaded host; contain those
	// like stepVM does rather than killing the caller's round loop.
	defer func() {
		if r := recover(); r != nil {
			gp, ok := r.(*guestos.GuestPanic)
			if !ok {
				panic(r)
			}
			inst, err = nil, fmt.Errorf("core: ImmigrateVM VM %d: %w", img.ID, gp)
		}
	}()
	if vc.ID != img.ID {
		return nil, fmt.Errorf("core: ImmigrateVM: config names VM %d, image carries VM %d", vc.ID, img.ID)
	}
	if err := s.admit("ImmigrateVM", vc, true); err != nil {
		return nil, err
	}
	r, err := snapshot.OpenBytes(img.Data)
	if err != nil {
		return nil, fmt.Errorf("core: ImmigrateVM VM %d: %w", vc.ID, err)
	}

	// Boot silently: the reconstruction boot replays allocation and
	// workload-init activity that already happened on the source host,
	// none of which may reach this host's event sinks. Observability is
	// attached after the overlay.
	h := s.Cfg.Obs
	s.Cfg.Obs = nil
	inst, err = s.bootVM(vc)
	s.Cfg.Obs = h
	if err != nil {
		return nil, fmt.Errorf("core: ImmigrateVM VM %d: rebooting: %w", vc.ID, err)
	}

	// All-or-nothing from here: on any failure the half-built guest is
	// destroyed and the host is left exactly as before the call.
	var adopted [memsim.NumTiers][]memsim.MFN
	abort := func(cause error) (*VMInstance, error) {
		for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
			if len(adopted[t]) > 0 {
				inst.VM.Release(adopted[t])
			}
		}
		if derr := s.VMM.DestroyVM(vc.ID); derr != nil {
			return nil, fmt.Errorf("core: ImmigrateVM VM %d: %w (and teardown failed: %v)", vc.ID, cause, derr)
		}
		return nil, fmt.Errorf("core: ImmigrateVM VM %d: %w", vc.ID, cause)
	}

	// Drop the transient boot footprint, then adopt destination frames
	// matching the image's per-tier footprint in its place.
	inst.OS.Teardown()
	if err := inst.OS.P2MEmpty(); err != nil {
		return abort(err)
	}
	for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
		mfns, aerr := inst.VM.AdoptFrames(t, img.Pages[t])
		if aerr != nil {
			return abort(aerr)
		}
		adopted[t] = mfns
	}

	// Rebind the image's source-host MFNs onto the adopted frames, in
	// ascending PFN order per tier so the binding is deterministic.
	mfnMap := make(map[memsim.MFN]memsim.MFN, img.Frames())
	if err := r.State("p2m", func(c *snapshot.Codec) error {
		return s.p2mState(c, inst, &adopted, mfnMap)
	}); err != nil {
		return abort(err)
	}
	mapMFN := func(m memsim.MFN) memsim.MFN {
		if nm, ok := mfnMap[m]; ok {
			return nm
		}
		return m
	}
	if err := r.State("vm", func(c *snapshot.Codec) error {
		return s.vmState(c, inst, mapMFN)
	}); err != nil {
		return abort(err)
	}

	s.Departed = slices.DeleteFunc(s.Departed, func(stub *VMInstance) bool { return stub.ID == vc.ID })
	s.VMs = append(s.VMs, inst)
	s.observeVM(inst)
	if s.sysScope != nil {
		s.sysScope.Emit(obs.EvVMMigrateIn, obs.DirNone, obs.TierNone, 0, img.Frames(), uint64(vc.ID), 0)
	}
	return inst, nil
}

// p2mState codes an image's p2m section: the count of backed guest
// pages (a u64), then each page's PFN, machine frame and tier in
// ascending PFN order (the PFN is implied by the guest state and kept
// for tooling). Reading, into a guest with no backed pages, maps each
// listed frame to the next of adopted's frames of its tier into
// mfnMap. The count must equal the adopted frames' and is checked
// before any entry is read, so with no tier overdrawn every adopted
// frame is used exactly once.
func (s *System) p2mState(c *snapshot.Codec, inst *VMInstance,
	adopted *[memsim.NumTiers][]memsim.MFN, mfnMap map[memsim.MFN]memsim.MFN) error {
	type entry struct {
		pfn, mfn uint64
		tier     uint8
	}
	var n uint64
	inst.OS.ForEachBacked(func(guestos.PFN, memsim.MFN) { n++ })
	backed := make([]entry, 0, n)
	inst.OS.ForEachBacked(func(pfn guestos.PFN, mfn memsim.MFN) {
		backed = append(backed, entry{uint64(pfn), uint64(mfn), uint8(s.Machine.TierOf(mfn))})
	})
	c.U64(&n)
	if c.Reading() && c.Err() == nil {
		frames := 0
		for _, a := range adopted {
			frames += len(a)
		}
		if n != uint64(frames) {
			return fmt.Errorf("image lists %d backed pages but grants %d frames", n, frames)
		}
		backed = make([]entry, n)
	}
	for i := range backed {
		c.U64(&backed[i].pfn)
		c.U64(&backed[i].mfn)
		c.U8(&backed[i].tier)
	}
	if !c.Reading() || c.Err() != nil {
		return c.Err()
	}
	var cursor [memsim.NumTiers]int
	for i, e := range backed {
		t := memsim.Tier(e.tier)
		if t >= memsim.NumTiers || cursor[t] >= len(adopted[t]) {
			return fmt.Errorf("p2m entry %d: tier %d frame count exceeds image footprint", i, t)
		}
		mfnMap[memsim.MFN(e.mfn)] = adopted[t][cursor[t]]
		cursor[t]++
	}
	return nil
}

// HeatIndexSummary reports the VM's heat-bucket fingerprint, or false
// when no heat index is attached (modes without migration). Fleet tests
// compare pre/post-migration summaries to assert the profile survived.
func (inst *VMInstance) HeatIndexSummary() (vmm.HeatSummary, bool) {
	if inst.scanner == nil {
		return vmm.HeatSummary{}, false
	}
	if ix := inst.scanner.Index(); ix != nil {
		return ix.Summary(), true
	}
	return vmm.HeatSummary{}, false
}
