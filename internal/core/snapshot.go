// Checkpoint/restore for a full System. A checkpoint captures every
// bit of mutable simulation state — guest OS structures, VMM grant
// counters, machine frame ownership, workload progress,
// and all RNG streams — into the versioned, checksummed format of
// internal/snapshot. RestoreSystem rebuilds a System from the same
// Config (reconstruct), then overlays the serialized state (overlay):
// anything a fresh boot randomized or consumed is overwritten, so a
// restored run continues bit-for-bit identically to the uninterrupted
// one (`make snapshot-parity` enforces this byte-for-byte).
package core

import (
	"fmt"
	"io"
	"slices"

	"heteroos/internal/memsim"
	"heteroos/internal/obs"
	"heteroos/internal/sim"
	"heteroos/internal/snapshot"
	"heteroos/internal/vmm"
)

// Checkpoint serializes the system's full mutable state to w. The
// system must be between epochs — Checkpoint never runs mid-StepEpoch.
func (s *System) Checkpoint(w io.Writer) error {
	sw, err := snapshot.NewWriter(w)
	if err != nil {
		return err
	}
	if err := sw.State("config", s.configState); err != nil {
		return err
	}
	if err := sw.State("machine", s.Machine.SnapshotState); err != nil {
		return err
	}
	for _, inst := range s.VMs {
		if err := sw.State(fmt.Sprintf("vm%d", inst.ID), func(c *snapshot.Codec) error {
			return s.vmState(c, inst, nil)
		}); err != nil {
			return fmt.Errorf("core: checkpoint VM %d: %w", inst.ID, err)
		}
	}
	if err := sw.State("departed", s.departedState); err != nil {
		return err
	}
	return sw.Close()
}

// RestoreSystem rebuilds a checkpointed system. cfg must describe the
// machine and the VM set live at checkpoint time exactly as the
// original run did (same shape, seed, share policy, and VM configs in
// the same order — the fleet records this in its own checkpoint
// section); the snapshot's config section is cross-checked against it
// and any mismatch is an error, not silent divergence.
//
// The restore strategy is reconstruct + overlay: NewSystem boots the
// full stack (allocating frames, consuming RNG draws, initializing
// workloads), then every piece of mutable state is overwritten from
// the snapshot. Derived structures are rebuilt rather than restored —
// page-cache forward maps from the reverse map, the VMM heat index by
// re-attachment over restored page state — so invariants hold by
// construction. A snapshot carrying a section no checkpoint of this
// system writes, or one whose sections disagree (CheckInvariants
// fails), is refused.
func RestoreSystem(r *snapshot.Reader, cfg Config) (*System, error) {
	// Boot silently: the reconstruction boot replays allocation and
	// workload-init activity that already happened (and was already
	// observed) before the checkpoint, so none of it may reach the
	// caller's event sinks. Observability is attached after the overlay;
	// from there the event stream continues exactly where it left off.
	h := cfg.Obs
	cfg.Obs = nil
	s, err := NewSystem(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: restore: rebooting system: %w", err)
	}

	// The departed stubs come first: the config section lists their IDs
	// and reading it checks them.
	if err := r.State("departed", s.departedState); err != nil {
		return nil, err
	}
	if err := r.State("config", s.configState); err != nil {
		return nil, err
	}

	if err := r.State("machine", s.Machine.SnapshotState); err != nil {
		return nil, err
	}

	// Checkpoint writes exactly these sections, so any other (a backend
	// or share-policy section, a VM the config does not boot) was not
	// written by this code.
	known := map[string]bool{"config": true, "departed": true, "machine": true}
	for _, inst := range s.VMs {
		known[fmt.Sprintf("vm%d", inst.ID)] = true
	}
	for _, name := range r.Sections() {
		if !known[name] {
			return nil, fmt.Errorf("core: restore: snapshot has a %s section, which no checkpoint of this system writes", name)
		}
	}

	for _, inst := range s.VMs {
		if err := r.State(fmt.Sprintf("vm%d", inst.ID), func(c *snapshot.Codec) error {
			return s.vmState(c, inst, nil)
		}); err != nil {
			return nil, fmt.Errorf("core: restore VM %d: %w", inst.ID, err)
		}
	}
	// Each section checked its own structures as it was read; what ties
	// them together (grant counters to machine frame ownership, guest
	// page state to the machine's frames) is checked here, once all are
	// in.
	if err := s.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	s.attachObs(h)
	return s, nil
}

// configState codes the config section: the machine shape, seed, share
// policy, cost scale, pricing backend and epoch count, then the live and
// departed VM IDs in order. Reading restores the epoch count and
// cross-checks every other value against s, a system rebooted from the
// restore's Config with its departed stubs already read; writing passes
// the same checks trivially.
func (s *System) configState(c *snapshot.Codec) error {
	fast, slow, seed := s.Cfg.FastFrames, s.Cfg.SlowFrames, s.Cfg.Seed
	share, costScale, backendName := string(s.Cfg.Share), s.Cfg.CostScale, s.Backend.Name()
	c.U64(&fast)
	c.U64(&slow)
	c.U64(&seed)
	c.Str(&share)
	c.F64(&costScale)
	c.Str(&backendName)
	c.Int(&s.epochs)
	if err := c.Err(); err != nil {
		return err
	}
	if fast != s.Cfg.FastFrames || slow != s.Cfg.SlowFrames {
		return fmt.Errorf("core: restore: snapshot machine (%d fast, %d slow) != config (%d, %d)",
			fast, slow, s.Cfg.FastFrames, s.Cfg.SlowFrames)
	}
	if seed != s.Cfg.Seed {
		return fmt.Errorf("core: restore: snapshot seed %d != config seed %d", seed, s.Cfg.Seed)
	}
	if ShareKind(share) != s.Cfg.Share {
		return fmt.Errorf("core: restore: snapshot share policy %q != config %q", share, s.Cfg.Share)
	}
	if costScale != s.Cfg.CostScale {
		return fmt.Errorf("core: restore: snapshot CostScale %g != config %g", costScale, s.Cfg.CostScale)
	}
	// Pricing-model identity, not just state shape: restoring state taken
	// under one backend into a system pricing with another would not fail
	// structurally — it would silently re-price the remaining epochs.
	if backendName != s.Backend.Name() {
		return fmt.Errorf("core: restore: snapshot was taken under the %q backend, config builds %q",
			backendName, s.Backend.Name())
	}
	for _, set := range []struct {
		what  string
		insts []*VMInstance
	}{{"live", s.VMs}, {"departed", s.Departed}} {
		want := make([]uint32, len(set.insts))
		for i, inst := range set.insts {
			want[i] = uint32(inst.ID)
		}
		got := want
		snapshot.Slice(c, &got, c.U32)
		if c.Err() == nil && !slices.Equal(got, want) {
			return fmt.Errorf("core: restore: snapshot %s VMs %v, restored system has %v", set.what, got, want)
		}
	}
	return c.Err()
}

// attachObs wires observability into a restored system, mirroring the
// boot-time wiring in NewSystem/bootVM. The backend keeps running
// without its metrics option (it was built before the handle attached);
// event streams — the parity-gated surface — are unaffected.
func (s *System) attachObs(h *obs.Obs) {
	if h == nil {
		return
	}
	s.Cfg.Obs = h
	for _, inst := range s.VMs {
		s.observeVM(inst)
	}
	s.sysScope = h.Scope(0, s.latestClock)
	if s.drf != nil {
		s.drf.AttachObs(s.sysScope)
	}
}

// departedState codes the departed-VM stubs: ID, whether the VM
// migrated out, its final clock, result and trace log.
func (s *System) departedState(c *snapshot.Codec) error {
	snapshot.Slice(c, &s.Departed, func(stub **VMInstance) {
		if *stub == nil {
			*stub = &VMInstance{Done: true}
		}
		inst := *stub
		id := uint32(inst.ID)
		c.U32(&id)
		inst.ID = vmm.VMID(id)
		c.Bool(&inst.MigratedOut)
		clockState(c, &inst.Clock)
		c.JSON(&inst.Res)
		c.JSON(&inst.TraceLog)
	})
	return c.Err()
}

// clockState codes a clock's current time.
func clockState(c *snapshot.Codec, clk *sim.Clock) {
	now := int64(clk.Now())
	c.I64(&now)
	clk.Restore(sim.Time(now))
}

// vmState codes one live VM's mutable state: the body of a
// checkpoint's vm<ID> section and of a VMImage's vm section. Reading
// overlays inst, a freshly booted instance of the same VMConfig;
// mapMFN rebinds every guest page's machine frame as it is decoded
// (nil is the identity: checkpoint restore onto the same machine).
func (s *System) vmState(c *snapshot.Codec, inst *VMInstance, mapMFN func(memsim.MFN) memsim.MFN) error {
	if err := inst.VM.SnapshotState(c); err != nil {
		return err
	}
	clockState(c, &inst.Clock)
	c.I64((*int64)(&inst.scanDebt))
	c.Int(&inst.moveBudget)
	c.Int(&inst.throttledPasses)
	c.Bool(&inst.stallMigration)
	c.Int(&inst.stallSkips)
	c.Bool(&inst.Done)
	c.JSON(&inst.Res)
	c.JSON(&inst.TraceLog)
	hasScanner := inst.scanner != nil
	c.Bool(&hasScanner)
	if hasScanner != (inst.scanner != nil) {
		return fmt.Errorf("snapshot scanner presence %v != booted instance %v (mode mismatch?)",
			hasScanner, inst.scanner != nil)
	}
	if inst.scanner != nil {
		c.Fail(inst.scanner.SnapshotState(c))
	}
	hasInterval := inst.interval != nil
	c.Bool(&hasInterval)
	if hasInterval != (inst.interval != nil) {
		return fmt.Errorf("snapshot adaptive-interval presence %v != booted instance %v (mode mismatch?)",
			hasInterval, inst.interval != nil)
	}
	if inst.interval != nil {
		c.Fail(inst.interval.SnapshotState(c))
	}
	if err := inst.OS.SnapshotState(c, mapMFN); err != nil {
		return err
	}
	if inst.scanner != nil && c.Reading() {
		// The heat index is a pure function of guest page state; rebuild
		// it over the restored store instead of deserializing it.
		inst.OS.SetPageIndexer(vmm.NewHeatIndex(inst.scanner, s.Machine.TierOf))
	}
	return inst.W.SnapshotState(c, inst.OS)
}
