// Checkpoint/restore for a full System. A checkpoint captures every
// bit of mutable simulation state — guest OS structures, VMM share
// books, machine frame ownership, workload progress,
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

	"heteroos/internal/obs"
	"heteroos/internal/sim"
	"heteroos/internal/snapshot"
	"heteroos/internal/vmm"
	"heteroos/internal/workload"
)

// Checkpoint serializes the system's full mutable state to w. The
// system must be between epochs — Checkpoint never runs mid-StepEpoch.
//
// Every workload on a live VM must implement workload.Snapshotter;
// this is checked up front so a doomed checkpoint fails before writing
// anything.
func (s *System) Checkpoint(w io.Writer) error {
	snapshotters := make(map[vmm.VMID]workload.Snapshotter, len(s.VMs))
	for _, inst := range s.VMs {
		ws, ok := inst.W.(workload.Snapshotter)
		if !ok {
			return fmt.Errorf("core: workload %T on VM %d does not support checkpointing", inst.W, inst.ID)
		}
		snapshotters[inst.ID] = ws
	}

	sw, err := snapshot.NewWriter(w)
	if err != nil {
		return err
	}
	if err := sw.Section("config", func(e *snapshot.Encoder) {
		e.U64(s.Cfg.FastFrames)
		e.U64(s.Cfg.SlowFrames)
		e.U64(s.Cfg.Seed)
		e.Str(string(s.Cfg.Share))
		e.F64(s.Cfg.CostScale)
		e.Str(s.Backend.Name())
		e.Int(s.epochs)
		e.U32(uint32(len(s.VMs)))
		for _, inst := range s.VMs {
			e.U32(uint32(inst.ID))
		}
		e.U32(uint32(len(s.Departed)))
		for _, inst := range s.Departed {
			e.U32(uint32(inst.ID))
		}
	}); err != nil {
		return err
	}
	if err := sw.Section("machine", func(e *snapshot.Encoder) {
		s.Machine.Snapshot(e)
	}); err != nil {
		return err
	}
	if s.drf != nil {
		if err := sw.Section("drf", func(e *snapshot.Encoder) {
			s.drf.DRFAllocator().Snapshot(e)
		}); err != nil {
			return err
		}
	}
	var sectionErr error
	for _, inst := range s.VMs {
		inst := inst
		if err := sw.Section(fmt.Sprintf("vm%d", inst.ID), func(e *snapshot.Encoder) {
			inst.VM.SnapshotState(e)
			e.I64(int64(inst.Clock.Now()))
			e.I64(int64(inst.scanDebt))
			e.Int(inst.moveBudget)
			e.Int(inst.throttledPasses)
			e.Bool(inst.stallMigration)
			e.Int(inst.stallSkips)
			e.Bool(inst.Done)
			if err := e.JSON(&inst.Res); err != nil && sectionErr == nil {
				sectionErr = err
			}
			if err := e.JSON(inst.TraceLog); err != nil && sectionErr == nil {
				sectionErr = err
			}
			e.Bool(inst.scanner != nil)
			if inst.scanner != nil {
				inst.scanner.SnapshotState(e)
			}
			e.Bool(inst.interval != nil)
			if inst.interval != nil {
				inst.interval.SnapshotState(e)
			}
			inst.OS.SnapshotState(e)
			snapshotters[inst.ID].SnapshotState(e)
		}); err != nil {
			return err
		}
		if sectionErr != nil {
			return fmt.Errorf("core: checkpoint VM %d: %w", inst.ID, sectionErr)
		}
	}
	if err := sw.Section("departed", func(e *snapshot.Encoder) {
		e.U32(uint32(len(s.Departed)))
		for _, inst := range s.Departed {
			e.U32(uint32(inst.ID))
			e.Bool(inst.MigratedOut)
			e.I64(int64(inst.Clock.Now()))
			if err := e.JSON(&inst.Res); err != nil && sectionErr == nil {
				sectionErr = err
			}
			if err := e.JSON(inst.TraceLog); err != nil && sectionErr == nil {
				sectionErr = err
			}
		}
	}); err != nil {
		return err
	}
	if sectionErr != nil {
		return fmt.Errorf("core: checkpoint departed VMs: %w", sectionErr)
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
// buddy heaps from free-page order, page-cache forward maps from the
// reverse map, the VMM heat index by re-attachment over restored page
// state — so invariants hold by construction.
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

	d, err := r.Section("config")
	if err != nil {
		return nil, err
	}
	fast, slow, seed := d.U64(), d.U64(), d.U64()
	share := ShareKind(d.Str())
	costScale := d.F64()
	backendName := d.Str()
	epochs := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if fast != s.Cfg.FastFrames || slow != s.Cfg.SlowFrames {
		return nil, fmt.Errorf("core: restore: snapshot machine (%d fast, %d slow) != config (%d, %d)",
			fast, slow, s.Cfg.FastFrames, s.Cfg.SlowFrames)
	}
	if seed != s.Cfg.Seed {
		return nil, fmt.Errorf("core: restore: snapshot seed %d != config seed %d", seed, s.Cfg.Seed)
	}
	if share != s.Cfg.Share {
		return nil, fmt.Errorf("core: restore: snapshot share policy %q != config %q", share, s.Cfg.Share)
	}
	if costScale != s.Cfg.CostScale {
		return nil, fmt.Errorf("core: restore: snapshot CostScale %g != config %g", costScale, s.Cfg.CostScale)
	}
	// Pricing-model identity, not just state shape: restoring state taken
	// under one backend into a system pricing with another would not fail
	// structurally — it would silently re-price the remaining epochs.
	if backendName != s.Backend.Name() {
		return nil, fmt.Errorf("core: restore: snapshot was taken under the %q backend, config builds %q",
			backendName, s.Backend.Name())
	}
	nLive := int(d.U32())
	if nLive != len(s.VMs) {
		return nil, fmt.Errorf("core: restore: snapshot has %d live VMs, config boots %d", nLive, len(s.VMs))
	}
	for i := 0; i < nLive; i++ {
		id := vmm.VMID(d.U32())
		if id != s.VMs[i].ID {
			return nil, fmt.Errorf("core: restore: snapshot VM #%d is %d, config boots %d in that slot",
				i, id, s.VMs[i].ID)
		}
	}
	nDeparted := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	s.epochs = epochs

	d, err = r.Section("machine")
	if err != nil {
		return nil, err
	}
	if err := s.Machine.Restore(d); err != nil {
		return nil, err
	}

	// The pricing model is stateless, so no writer emits a "backend"
	// section; a snapshot carrying one was not written by this code.
	if r.Has("backend") {
		return nil, fmt.Errorf("core: restore: snapshot has a backend section, but no backend carries run state")
	}

	if s.drf != nil {
		d, err = r.Section("drf")
		if err != nil {
			return nil, err
		}
		if err := s.drf.DRFAllocator().Restore(d); err != nil {
			return nil, err
		}
	} else if r.Has("drf") {
		return nil, fmt.Errorf("core: restore: snapshot has DRF state but share policy is %q", s.Cfg.Share)
	}

	for _, inst := range s.VMs {
		d, err = r.Section(fmt.Sprintf("vm%d", inst.ID))
		if err != nil {
			return nil, err
		}
		if err := restoreVM(s, inst, d); err != nil {
			return nil, fmt.Errorf("core: restore VM %d: %w", inst.ID, err)
		}
	}

	d, err = r.Section("departed")
	if err != nil {
		return nil, err
	}
	if n := int(d.U32()); n != nDeparted {
		return nil, fmt.Errorf("core: restore: departed section has %d VMs, config section says %d", n, nDeparted)
	}
	for i := 0; i < nDeparted; i++ {
		stub := &VMInstance{ID: vmm.VMID(d.U32()), Done: true, MigratedOut: d.Bool()}
		stub.Clock.Restore(sim.Time(d.I64()))
		if err := d.JSON(&stub.Res); err != nil {
			return nil, fmt.Errorf("core: restore departed VM %d: %w", stub.ID, err)
		}
		if err := d.JSON(&stub.TraceLog); err != nil {
			return nil, fmt.Errorf("core: restore departed VM %d: %w", stub.ID, err)
		}
		s.Departed = append(s.Departed, stub)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	s.attachObs(h)
	return s, nil
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
		scope := h.Scope(int(inst.ID), inst.simNow)
		inst.obsScope = scope
		inst.probes = newCoreProbes(scope)
		inst.OS.AttachObs(scope)
		if inst.scanner != nil {
			inst.scanner.AttachObs(scope)
		}
		if inst.migrator != nil {
			inst.migrator.AttachObs(scope)
		}
		if s.Cfg.ProfileEpochs {
			inst.phases = obs.NewPhaseProfiler(scope.Registry())
			if inst.scanner != nil {
				inst.scanner.AttachPhases(inst.phases)
			}
		}
	}
	s.sysScope = h.Scope(0, s.latestClock)
	if s.drf != nil {
		s.drf.AttachObs(s.sysScope)
	}
}

// restoreVM overlays one live VM's serialized state onto its freshly
// booted instance, mirroring the Checkpoint field order exactly.
func restoreVM(s *System, inst *VMInstance, d *snapshot.Decoder) error {
	if err := inst.VM.RestoreState(d); err != nil {
		return err
	}
	inst.Clock.Restore(sim.Time(d.I64()))
	inst.scanDebt = sim.Duration(d.I64())
	inst.moveBudget = d.Int()
	inst.throttledPasses = d.Int()
	inst.stallMigration = d.Bool()
	inst.stallSkips = d.Int()
	inst.Done = d.Bool()
	inst.Res = VMResult{}
	if err := d.JSON(&inst.Res); err != nil {
		return err
	}
	inst.TraceLog = nil
	if err := d.JSON(&inst.TraceLog); err != nil {
		return err
	}
	hadScanner := d.Bool()
	if hadScanner != (inst.scanner != nil) {
		return fmt.Errorf("snapshot scanner presence %v != booted instance %v (mode mismatch?)",
			hadScanner, inst.scanner != nil)
	}
	if inst.scanner != nil {
		if err := inst.scanner.RestoreState(d); err != nil {
			return err
		}
	}
	hadInterval := d.Bool()
	if hadInterval != (inst.interval != nil) {
		return fmt.Errorf("snapshot adaptive-interval presence %v != booted instance %v (mode mismatch?)",
			hadInterval, inst.interval != nil)
	}
	if inst.interval != nil {
		if err := inst.interval.RestoreState(d); err != nil {
			return err
		}
	}
	if err := inst.OS.RestoreState(d); err != nil {
		return err
	}
	if inst.scanner != nil {
		// The heat index is a pure function of guest page state; rebuild
		// it over the restored store instead of deserializing it.
		inst.OS.SetPageIndexer(vmm.NewHeatIndex(inst.scanner, s.Machine.TierOf))
	}
	ws, ok := inst.W.(workload.Snapshotter)
	if !ok {
		return fmt.Errorf("workload %T does not support checkpointing", inst.W)
	}
	if err := ws.RestoreState(d, inst.OS); err != nil {
		return err
	}
	return d.Err()
}
