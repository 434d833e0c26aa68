// Package core assembles the full HeteroOS system: a machine with two
// memory tiers, the VMM with a share policy, one or more guest VMs each
// running a guest OS under a named management mode (internal/policy)
// and a workload (internal/workload), and the epoch loop that prices
// execution with the memsim engine.
//
// This is the public API surface of the reproduction: experiments, the
// CLIs, and the examples all drive simulations through this package.
package core

import (
	"errors"
	"fmt"
	"slices"

	"heteroos/internal/guestos"
	"heteroos/internal/memsim"
	"heteroos/internal/obs"
	"heteroos/internal/policy"
	"heteroos/internal/sim"
	"heteroos/internal/vmm"
	"heteroos/internal/workload"
)

// ShareKind names a VMM share policy.
type ShareKind string

// Share policy names accepted by Config.Share.
const (
	ShareStatic ShareKind = "static"
	ShareMaxMin ShareKind = "max-min"
	ShareDRF    ShareKind = "drf"
)

// VMConfig describes one guest VM.
type VMConfig struct {
	ID   vmm.VMID
	Mode policy.Mode
	// Workload runs inside the VM.
	Workload workload.Workload
	// FastPages / SlowPages bound the VM's per-tier capacity (scaled
	// pages). Mode.NoFastMem forces FastPages to 0; Mode.AllFastMem
	// replaces both with one large FastMem span.
	FastPages, SlowPages uint64
	// BootFastPages / BootSlowPages are populated at boot; zero defaults
	// to half the span (the rest arrives on demand).
	BootFastPages, BootSlowPages uint64
	// ReservedFastPages / ReservedSlowPages are the VMM-guaranteed
	// minimums for multi-VM sharing; zero defaults to the boot sizes.
	ReservedFastPages, ReservedSlowPages uint64
}

// Config describes the whole system.
type Config struct {
	// Machine shape (scaled pages per tier).
	FastFrames, SlowFrames uint64
	// SlowSpec is SlowMem's performance; the zero value defaults to the
	// paper's L:5,B:9. FastMem is always the paper's L:1,B:1.
	SlowSpec memsim.TierSpec
	// LLC model; zero value defaults to the 16 MB reference platform.
	LLC memsim.LLC
	// Share selects the VMM share policy (default static).
	Share ShareKind
	// VMs to boot.
	VMs []VMConfig
	// MaxEpochs bounds the run (default 4096).
	MaxEpochs int
	// ScanEveryEpochs is the baseline hotness-tracking cadence in
	// epochs (default 1, i.e. every 100 ms epoch).
	ScanEveryEpochs int
	// ScanBatchPages bounds pages scanned per pass, in scaled pages
	// (default 32K real pages / CostScale — the Figure 8 cadence).
	ScanBatchPages int
	// CostScale is the capacity scale factor: one simulated page stands
	// for CostScale real pages, so per-page software costs multiply by
	// it. Default workload.DefaultScale.
	CostScale float64
	// Trace records a per-epoch time series in each VMInstance (memory
	// profiles over time; used by heterosim -trace and tooling).
	Trace bool
	// Obs, when non-nil, enables the observability subsystem: every
	// layer registers its metrics into Obs.Metrics at boot and emits
	// structured events into Obs.Tracer at its chokepoints. nil (the
	// default) keeps the hot path allocation-free and the simulation
	// output byte-identical — observation never alters behaviour.
	Obs *obs.Obs
	// ProfileEpochs, when set together with Obs, attaches the epoch
	// phase profiler: each VM's epoch-loop phases (workload, scan, rank,
	// migrate, balance, charge) record simulated cost and host wall time
	// into per-VM "phase.*" histograms. Off by default — even with obs
	// on, runs skip the extra time.Now calls unless asked to profile.
	ProfileEpochs bool
	// AllowNoVMs permits booting a system with an empty VM set. The
	// fleet layer boots hosts empty and populates them mid-run through
	// BootVM/ImmigrateVM; ordinary single-host runs keep the zero-VM
	// misconfiguration guard.
	AllowNoVMs bool
	// Backend builds the machine-model backend the system prices epochs
	// with. nil defaults to memsim.AnalyticBackend — the Table-3
	// model. NewSystem invokes the builder once, with the machine it
	// just built plus the obs option; a harness sets it to wrap
	// the analytic engine in a decorator.
	Backend memsim.Builder
	// Seed drives all randomness.
	Seed uint64
}

func (c *Config) applyDefaults() {
	if c.SlowSpec == (memsim.TierSpec{}) {
		c.SlowSpec = memsim.SlowTierSpec()
	}
	if c.LLC == (memsim.LLC{}) {
		c.LLC = memsim.DefaultLLC()
	}
	if c.Share == "" {
		c.Share = ShareStatic
	}
	if c.MaxEpochs == 0 {
		c.MaxEpochs = 4096
	}
	if c.ScanEveryEpochs == 0 {
		c.ScanEveryEpochs = 1
	}
	if c.CostScale == 0 {
		c.CostScale = workload.DefaultScale
	}
	if c.ScanBatchPages == 0 {
		// 32K real guest pages per 100 ms pass (the Figure 8 cadence).
		c.ScanBatchPages = int(32 * 1024 / c.CostScale)
		if c.ScanBatchPages < 1 {
			c.ScanBatchPages = 1
		}
	}
}

// movesPerPass bounds migrations per rebalance, in scaled pages: 8K real
// pages, one Table 6 batch.
func (c *Config) movesPerPass() int { return max(1, int(8*1024/c.CostScale)) }

// coordMovesPerEpoch is the coordinated manager's migration budget
// accrual (scaled pages per epoch); selectivity is what keeps
// coordinated migration volumes at Figure 12's levels.
const coordMovesPerEpoch = 96

// effectiveSpans resolves a VM's per-tier capacity after the mode's
// baseline overrides (NoFastMem zeroes FastMem; AllFastMem folds both
// spans into one FastMem span and keeps SlowMem, sized as configured,
// as a never-preferred safety net).
func (vc *VMConfig) effectiveSpans() (fast, slow uint64) {
	fast, slow = vc.FastPages, vc.SlowPages
	switch {
	case vc.Mode.NoFastMem:
		fast = 0
	case vc.Mode.AllFastMem:
		fast = fast + slow
	}
	return fast, slow
}

// Validate rejects impossible configurations with descriptive errors
// before any machinery boots, instead of letting them surface as
// confusing mid-run failures. NewSystem calls it after defaults are
// applied; callers holding a hand-built Config may also call it
// directly (zero knobs that applyDefaults would fill are accepted).
func (c *Config) Validate() error {
	if c.FastFrames == 0 && c.SlowFrames == 0 {
		return errors.New("core: machine has zero memory frames")
	}
	if c.FastFrames > memsim.MaxFrames || c.SlowFrames > memsim.MaxFrames-c.FastFrames {
		return fmt.Errorf("core: machine of %d+%d frames exceeds MaxFrames %d",
			c.FastFrames, c.SlowFrames, uint64(memsim.MaxFrames))
	}
	if c.MaxEpochs < 0 {
		return fmt.Errorf("core: negative MaxEpochs %d", c.MaxEpochs)
	}
	if c.CostScale < 0 {
		return fmt.Errorf("core: negative CostScale %g", c.CostScale)
	}
	if c.ScanEveryEpochs < 0 || c.ScanBatchPages < 0 {
		return fmt.Errorf("core: negative scan knob (ScanEveryEpochs=%d ScanBatchPages=%d)",
			c.ScanEveryEpochs, c.ScanBatchPages)
	}
	switch c.Share {
	case "", ShareStatic, ShareMaxMin, ShareDRF:
	default:
		return fmt.Errorf("core: unknown share policy %q", c.Share)
	}
	if len(c.VMs) == 0 && !c.AllowNoVMs {
		return errors.New("core: no VMs configured")
	}
	seen := make(map[vmm.VMID]bool, len(c.VMs))
	for i := range c.VMs {
		vc := &c.VMs[i]
		if vc.Workload == nil {
			return fmt.Errorf("core: VM %d has no workload", vc.ID)
		}
		if seen[vc.ID] {
			return fmt.Errorf("core: duplicate VM ID %d", vc.ID)
		}
		seen[vc.ID] = true
		fast, slow := vc.effectiveSpans()
		if fast+slow == 0 {
			return fmt.Errorf("core: VM %d has a zero memory span", vc.ID)
		}
		if fast > c.FastFrames {
			return fmt.Errorf("core: VM %d FastMem span %d pages exceeds machine FastFrames %d (mode %s)",
				vc.ID, fast, c.FastFrames, vc.Mode.Name)
		}
		if slow > c.SlowFrames {
			return fmt.Errorf("core: VM %d SlowMem span %d pages exceeds machine SlowFrames %d (mode %s)",
				vc.ID, slow, c.SlowFrames, vc.Mode.Name)
		}
	}
	return nil
}

// VMInstance is one running guest.
type VMInstance struct {
	ID   vmm.VMID
	Mode policy.Mode
	OS   *guestos.OS
	W    workload.Workload
	VM   *vmm.VM

	scanner  *vmm.Scanner
	migrator *vmm.Migrator
	interval *vmm.AdaptiveInterval
	// scanEvery multiplies the base 100 ms scan interval.
	scanEvery int
	// scanDebt is simulated time elapsed since the last scan pass.
	scanDebt sim.Duration
	// moveBudget is the coordinated manager's accumulated migration
	// allowance, in pages.
	moveBudget int
	// throttledPasses counts scan slots skipped while promotions are
	// throttled (most are elided; every 8th probes).
	throttledPasses int
	// stallMigration is the fault-injection flag: while set, migration
	// passes are skipped under bounded retry/backoff (see stepVM).
	stallMigration bool
	// stallSkips counts consecutive passes skipped by the active stall;
	// it indexes the backoff schedule and resets when the stall clears.
	stallSkips int

	Clock sim.Clock
	Done  bool
	// MigratedOut marks a Departed stub left behind by EmigrateVM: the
	// VM continues on another host, the stub only retires the ID here
	// (and carries a zero result so per-host sums never double-count).
	// ImmigrateVM un-retires such a stub if the VM migrates back.
	MigratedOut bool
	Res         VMResult
	// TraceLog holds the per-epoch series when Config.Trace is set.
	TraceLog []EpochTrace

	// obsScope and probes are set when Config.Obs is enabled; phases
	// additionally requires Config.ProfileEpochs.
	obsScope *obs.Scope
	probes   *coreProbes
	phases   *obs.PhaseProfiler
}

// EpochTrace is one sample of a VM's per-epoch time series.
type EpochTrace struct {
	Epoch       int
	Total       sim.Duration
	CPU         sim.Duration
	MemFast     sim.Duration
	MemSlow     sim.Duration
	OS          sim.Duration
	FastMisses  uint64
	SlowMisses  uint64
	Demotions   uint64
	Promotions  uint64
	FastFreePct float64
}

// VMResult accumulates one VM's run statistics.
type VMResult struct {
	SimTime  sim.Duration
	CPUTime  sim.Duration
	MemTime  [memsim.NumTiers]sim.Duration
	OSTime   sim.Duration
	Instr    uint64
	Epochs   int
	Misses   [memsim.NumTiers]uint64
	BytesOut [memsim.NumTiers]uint64

	Faults, SwapIns, SwapOuts            uint64
	Demotions, Promotions, VMMMigrations uint64
	CacheEvictions                       uint64
	DiskReadPages, DiskWritePages        uint64
	ScanCostNs, MigrateCostNs            float64
	ScanPasses                           int
	// Balloon traffic: pages granted to the guest and pages the back-end
	// refused (share-policy denial, pool exhaustion, injected fault).
	BalloonPagesIn, BalloonRefusedPages uint64
	// Migration-stall fault accounting: passes skipped while stalled and
	// backoff retry probes issued.
	MigrationStalledPasses, MigrationStallRetries uint64
	FastAllocRequests, FastAllocMisses            uint64
	FinalCensus                                   [guestos.NumKinds]uint64
	CumAllocs                                     [guestos.NumKinds]uint64
	NetBufChurnPages, SlabChurnPages              float64
}

// RuntimeSeconds reports the VM's simulated runtime.
func (r *VMResult) RuntimeSeconds() float64 { return r.SimTime.Seconds() }

// MissRatio reports the lifetime FastMem allocation miss ratio.
func (r *VMResult) MissRatio() float64 {
	if r.FastAllocRequests == 0 {
		return 0
	}
	return float64(r.FastAllocMisses) / float64(r.FastAllocRequests)
}

// Throughput derives ops/sec for throughput-metric workloads.
func (r *VMResult) Throughput(opsPerEpoch float64) float64 {
	if r.SimTime == 0 {
		return 0
	}
	return opsPerEpoch * float64(r.Epochs) / r.SimTime.Seconds()
}

// System is a fully wired simulation.
type System struct {
	Cfg     Config
	Machine *memsim.Machine
	VMM     *vmm.VMM
	// Backend prices epochs. It is the analytic Table-3 engine unless
	// Config.Backend selected another model.
	Backend memsim.Backend
	// VMs holds the live guests; Departed holds guests that were shut
	// down mid-run (their VMResult is final, their frames returned).
	VMs      []*VMInstance
	Departed []*VMInstance
	drf      *vmm.DRFShare // non-nil when Share == ShareDRF
	// epochs counts completed lockstep epochs (StepEpoch increments it).
	epochs int
	// sysScope is the VM-0 observability scope for cross-VM events
	// (DRF rebalances, VM lifecycle, fault injection); nil when obs is
	// off.
	sysScope *obs.Scope
}

// NewSystem builds and boots a system. The config is validated first:
// impossible shapes (zero frames, VM spans exceeding the machine,
// duplicate VM IDs) fail here with descriptive errors rather than as
// confusing mid-run failures.
func NewSystem(cfg Config) (*System, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{Cfg: cfg}
	s.Machine = memsim.NewMachine(cfg.FastFrames, cfg.SlowFrames, memsim.FastTierSpec(), cfg.SlowSpec)
	var share vmm.SharePolicy
	switch cfg.Share {
	case ShareStatic:
		share = vmm.StaticShare{}
	case ShareMaxMin:
		share = vmm.MaxMinShare{}
	case ShareDRF:
		d, err := vmm.NewDRFShare(s.Machine, vmm.DefaultDRFWeights())
		if err != nil {
			return nil, err
		}
		share = d
		s.drf = d
	default:
		return nil, fmt.Errorf("core: unknown share policy %q", cfg.Share)
	}
	s.VMM = vmm.New(s.Machine, share)
	build := cfg.Backend
	if build == nil {
		build = memsim.AnalyticBackend
	}
	var backendOpts []memsim.Option
	if cfg.Obs != nil {
		backendOpts = append(backendOpts, memsim.WithObs(cfg.Obs.Metrics))
	}
	s.Backend = build(s.Machine, backendOpts...)

	for _, vc := range cfg.VMs {
		inst, err := s.bootVM(vc)
		if err != nil {
			return nil, err
		}
		s.VMs = append(s.VMs, inst)
	}
	if cfg.Obs != nil {
		// Cross-VM actions (DRF rebalances, VM lifecycle, fault
		// injection) report on the system scope (VM 0), timestamped by
		// the furthest-advanced VM clock.
		s.sysScope = cfg.Obs.Scope(0, s.latestClock)
		if s.drf != nil {
			s.drf.AttachObs(s.sysScope)
		}
	}
	return s, nil
}

// latestClock reports the furthest-advanced VM clock (departed VMs
// included, so system time never moves backwards across a shutdown),
// the natural timestamp for system-scope (cross-VM) events.
func (s *System) latestClock() sim.Duration {
	var max sim.Duration
	for _, inst := range s.VMs {
		if d := sim.Duration(inst.Clock.Now()); d > max {
			max = d
		}
	}
	for _, inst := range s.Departed {
		if d := sim.Duration(inst.Clock.Now()); d > max {
			max = d
		}
	}
	return max
}

// Epochs reports how many lockstep epochs have completed.
func (s *System) Epochs() int { return s.epochs }

func (s *System) bootVM(vc VMConfig) (*VMInstance, error) {
	if vc.Workload == nil {
		return nil, fmt.Errorf("core: VM %d has no workload", vc.ID)
	}
	fast, slow := vc.effectiveSpans()
	bootFast, bootSlow := vc.BootFastPages, vc.BootSlowPages
	if bootFast == 0 {
		bootFast = fast / 2
	}
	if bootSlow == 0 {
		bootSlow = slow / 2
	}
	if bootFast > fast {
		bootFast = fast
	}
	if bootSlow > slow {
		bootSlow = slow
	}
	resFast, resSlow := vc.ReservedFastPages, vc.ReservedSlowPages
	if resFast == 0 {
		resFast = bootFast
	}
	if resSlow == 0 {
		resSlow = bootSlow
	}

	spec := vmm.VMSpec{ID: vc.ID}
	spec.Reserved[memsim.FastMem] = resFast
	spec.Reserved[memsim.SlowMem] = resSlow
	spec.MaxPages[memsim.FastMem] = fast
	spec.MaxPages[memsim.SlowMem] = slow
	vmh, err := s.VMM.CreateVM(spec)
	if err != nil {
		return nil, err
	}

	costs := guestos.DefaultCosts().Scaled(s.Cfg.CostScale)
	if vc.Mode.BareMetal {
		// No hypervisor boundary: reservation changes are plain
		// allocator operations, not balloon hypercalls.
		costs.BalloonPerPageNs = 0
	}
	os, err := guestos.New(guestos.Config{
		Aware:         vc.Mode.GuestAware,
		FastMaxPages:  fast,
		SlowMaxPages:  slow,
		BootFastPages: bootFast,
		BootSlowPages: bootSlow,
		Placement:     vc.Mode.Placement,
		Source:        vmh,
		TierOf:        s.Machine.TierOf,
		Costs:         costs,
		Seed:          s.Cfg.Seed ^ uint64(vc.ID)*0x9e3779b97f4a7c15,
	})
	if err != nil {
		return nil, fmt.Errorf("core: booting VM %d: %w", vc.ID, err)
	}
	vmh.Balloon = os
	vmh.View = os

	inst := &VMInstance{
		ID: vc.ID, Mode: vc.Mode, OS: os, W: vc.Workload, VM: vmh,
		scanEvery: s.Cfg.ScanEveryEpochs,
	}
	if vc.Mode.Migration != policy.MigrateNone {
		scanCosts := vmm.DefaultScanCosts().Scaled(s.Cfg.CostScale)
		if vc.Mode.BareMetal {
			// Native page-table scans skip the nested-paging walk the
			// hypervisor pays per PTE.
			scanCosts.PTEScanNs *= 0.7
			scanCosts.TLBRefillNs *= 0.7
		}
		inst.scanner = vmm.NewScanner(os, scanCosts)
		inst.scanner.BatchPages = s.Cfg.ScanBatchPages
		// Promote only decisively hot pages (two consecutive referenced
		// scans); anything looser churns on uniformly warm heaps.
		inst.scanner.HotThreshold = 6
		mc := vmm.DefaultMigrateCosts()
		mc.CostScale = s.Cfg.CostScale
		inst.migrator = vmm.NewMigrator(mc)
	}
	if vc.Mode.WriteAwareMigration && inst.scanner != nil {
		// Section 4.3 extension: track write bits and weight the
		// migration ranking by the slow tier's store/load asymmetry.
		inst.scanner.TrackWrites = true
		slow := s.Machine.Spec(memsim.SlowMem)
		if slow.LoadLatencyNs > 0 {
			boost := slow.StoreLatencyNs/slow.LoadLatencyNs - 1
			if boost < 0 {
				boost = 0
			}
			inst.scanner.WriteBoost = boost
		}
	}
	if vc.Mode.Migration == policy.MigrateCoordinated && inst.scanner != nil {
		// Guest-guided tracking also consults guest page state — the
		// validity information the VMM-exclusive scanner cannot see.
		inst.scanner.TrustGuestState = true
		// The guest keeps extra free FastMem headroom so promotions land
		// without displacing anything and allocation bursts don't bounce
		// freshly promoted pages back out.
		if vc.Mode.GuestAware {
			fast := os.Node(memsim.FastMem)
			fast.HighWatermark = 6 * fast.LowWatermark
		}
	}
	if vc.Mode.AdaptiveInterval {
		// Equation 1 varies the interval between 50 ms and 1 s.
		inst.interval = vmm.NewAdaptiveInterval(
			50*sim.Millisecond, sim.Second, 250*sim.Millisecond)
	}
	if inst.scanner != nil {
		// Attach the heat-bucket index: ranking queries become an O(k)
		// bucket walk updated incrementally from guest page events. Wired
		// after every scoring knob (thresholds, write tracking, guest
		// trust) is final, and before the workload touches memory, so the
		// boot-time seed sweep is the only full scan the index ever does.
		os.SetPageIndexer(vmm.NewHeatIndex(inst.scanner, s.Machine.TierOf))
	}
	// Observe after every scanner/migrator knob is final and before the
	// workload touches memory, so boot-time activity is already observed.
	s.observeVM(inst)
	if err := vc.Workload.Init(os); err != nil {
		return nil, fmt.Errorf("core: init workload on VM %d: %w", vc.ID, err)
	}
	return inst, nil
}

// observeVM wires inst into s.Cfg.Obs (a no-op with obs off): its
// scope, the core probes, the guest/scanner/migrator hooks and, with
// ProfileEpochs, the phase profiler. The scope's clock closure reads
// the instance clock at emission time.
func (s *System) observeVM(inst *VMInstance) {
	if s.Cfg.Obs == nil {
		return
	}
	scope := s.Cfg.Obs.Scope(int(inst.ID), inst.simNow)
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

// simNow reports the instance's current simulated time.
func (inst *VMInstance) simNow() sim.Duration {
	return sim.Duration(inst.Clock.Now())
}

// VMResultByID fetches a VM's results, searching live then departed
// guests.
func (s *System) VMResultByID(id vmm.VMID) (*VMResult, bool) {
	for _, inst := range s.VMs {
		if inst.ID == id {
			return &inst.Res, true
		}
	}
	for _, inst := range s.Departed {
		if inst.ID == id {
			return &inst.Res, true
		}
	}
	return nil, false
}

// instByID finds a live VM instance.
func (s *System) instByID(id vmm.VMID) (*VMInstance, bool) {
	for _, inst := range s.VMs {
		if inst.ID == id {
			return inst, true
		}
	}
	return nil, false
}

// BootVM boots an additional guest mid-run (VM arrival). The new VM
// joins the lockstep from the next epoch with its own virtual clock at
// zero, so its VMResult measures its own runtime exactly as a
// boot-time VM's would. IDs are never reused: a departed VM's ID stays
// retired so results remain unambiguous.
func (s *System) BootVM(vc VMConfig) (*VMInstance, error) {
	if err := s.admit("BootVM", vc, false); err != nil {
		return nil, err
	}
	inst, err := s.bootVM(vc)
	if err != nil {
		return nil, err
	}
	s.VMs = append(s.VMs, inst)
	if s.sysScope != nil {
		booted := inst.VM.Granted(memsim.FastMem) + inst.VM.Granted(memsim.SlowMem)
		s.sysScope.Emit(obs.EvVMBoot, obs.DirNone, obs.TierNone, 0, booted, uint64(vc.ID), 0)
	}
	return inst, nil
}

// admit checks that vc may join this host mid-run: its ID is neither
// live nor retired, and its spans fit the machine. returning also
// admits an ID whose departed stub is a migrated-out one (the VM is
// coming back). admit changes nothing; un-retiring the stub is the
// caller's last step once the VM is in.
func (s *System) admit(op string, vc VMConfig, returning bool) error {
	if _, ok := s.instByID(vc.ID); ok {
		return fmt.Errorf("core: %s: VM %d already running", op, vc.ID)
	}
	for _, stub := range s.Departed {
		if stub.ID == vc.ID && !(returning && stub.MigratedOut) {
			return fmt.Errorf("core: %s: VM id %d already used by a departed VM", op, vc.ID)
		}
	}
	fast, slow := vc.effectiveSpans()
	if fast+slow == 0 {
		return fmt.Errorf("core: %s: VM %d has a zero memory span", op, vc.ID)
	}
	if fast > s.Cfg.FastFrames || slow > s.Cfg.SlowFrames {
		return fmt.Errorf("core: %s: VM %d span (%d fast, %d slow) exceeds machine (%d, %d)",
			op, vc.ID, fast, slow, s.Cfg.FastFrames, s.Cfg.SlowFrames)
	}
	return nil
}

// ShutdownVM departs a guest mid-run: its result is finalised, the
// guest detached from the host, and the instance moved to Departed,
// where its result stays addressable through VMResultByID. Surviving
// guests' shares re-converge over the new membership.
func (s *System) ShutdownVM(id vmm.VMID) (*VMResult, error) {
	inst, ok := s.instByID(id)
	if !ok {
		return nil, fmt.Errorf("core: ShutdownVM: no live VM %d", id)
	}
	if !inst.Done {
		inst.Done = true
		s.finalizeResult(inst)
	}
	released, err := s.detach(inst)
	if err != nil {
		return nil, fmt.Errorf("core: ShutdownVM VM %d: %w", id, err)
	}
	s.Departed = append(s.Departed, inst)
	if s.sysScope != nil {
		s.sysScope.Emit(obs.EvVMShutdown, obs.DirNone, obs.TierNone, 0, released, uint64(id), 0)
	}
	return &inst.Res, nil
}

// detach removes a live VM from this host: the guest is torn down
// (balloon unwound, P2M cleared), every machine frame goes back to the
// VMM pool, the VM is deregistered from the share policy and dropped
// from VMs. It reports the pages the teardown released.
func (s *System) detach(inst *VMInstance) (uint64, error) {
	released := inst.OS.Teardown()
	if err := inst.OS.P2MEmpty(); err != nil {
		return 0, err
	}
	if err := s.VMM.DestroyVM(inst.ID); err != nil {
		return 0, err
	}
	s.VMs = slices.DeleteFunc(s.VMs, func(c *VMInstance) bool { return c == inst })
	return released, nil
}

// --- fault injection ---
// The setters are the fleet engine's hooks. Each emits an
// EvFaultInject start/clear pair on the target VM's scope (or the
// system scope for machine-level faults) so fault windows are visible
// in the event stream; with obs off they only flip the flag.

// SetMigrationStall starts (on=true) or clears an injected
// migration-engine stall on a live VM. While stalled, the VM's scan/
// migrate passes are skipped under bounded retry/backoff — the epoch
// loop never blocks, so a stall degrades but cannot deadlock the run.
func (s *System) SetMigrationStall(id vmm.VMID, on bool) error {
	inst, ok := s.instByID(id)
	if !ok {
		return fmt.Errorf("core: SetMigrationStall: no live VM %d", id)
	}
	inst.stallMigration = on
	if !on {
		inst.stallSkips = 0
	}
	s.emitFault(inst.obsScope, obs.FaultMigrationStall, on)
	return nil
}

// SetBalloonRefusal starts (on=true) or clears an injected balloon
// back-end refusal on a live VM: while set, every populate request is
// denied and the guest surfaces the shortfall (EvBalloonRefused).
func (s *System) SetBalloonRefusal(id vmm.VMID, on bool) error {
	inst, ok := s.instByID(id)
	if !ok {
		return fmt.Errorf("core: SetBalloonRefusal: no live VM %d", id)
	}
	inst.VM.RefusePopulate = on
	s.emitFault(inst.obsScope, obs.FaultBalloonRefusal, on)
	return nil
}

// SetTierSpec applies a mid-run tier performance shift (throttle-factor
// change). The pricing engine reads the machine spec at charge time, so
// the shift takes effect from the current epoch onward.
func (s *System) SetTierSpec(t memsim.Tier, spec memsim.TierSpec) {
	s.Machine.SetSpec(t, spec)
	if s.sysScope != nil {
		s.sysScope.Emit(obs.EvFaultInject, obs.DirStart, uint8(t), 0, 0, obs.FaultThrottleShift, 0)
	}
}

// EmitFault marks a fault window edge in the event stream on behalf of
// a caller that implements the fault itself (e.g. the fleet engine's
// workload surge). The event lands on the target VM's scope when id
// names a live instrumented VM, else on the system scope.
func (s *System) EmitFault(id vmm.VMID, code uint64, start bool) {
	if inst, ok := s.instByID(id); ok && inst.obsScope != nil {
		s.emitFault(inst.obsScope, code, start)
		return
	}
	s.emitFault(s.sysScope, code, start)
}

// emitFault emits one EvFaultInject edge on scope (nil scope: no-op).
func (s *System) emitFault(scope *obs.Scope, code uint64, start bool) {
	if scope == nil {
		return
	}
	dir := obs.DirClear
	if start {
		dir = obs.DirStart
	}
	scope.Emit(obs.EvFaultInject, dir, obs.TierNone, 0, 0, code, 0)
}

// DRFDominantShare reports a live VM's dominant share under the DRF
// policy (zero otherwise).
func (s *System) DRFDominantShare(id vmm.VMID) float64 {
	inst, ok := s.instByID(id)
	if s.drf == nil || !ok {
		return 0
	}
	return s.drf.DominantShare(inst.VM)
}

// CheckInvariants validates the whole stack. Beyond the live guests'
// cross-subsystem checks, every departed VM must have left no trace:
// zero machine frames still owned and an empty P2M — a leak on either
// side of the teardown fails here.
func (s *System) CheckInvariants() error {
	if err := s.VMM.CheckInvariants(); err != nil {
		return err
	}
	for _, inst := range s.VMs {
		if err := inst.OS.CheckInvariants(); err != nil {
			return fmt.Errorf("VM %d: %w", inst.ID, err)
		}
	}
	if len(s.Departed) == 0 {
		return nil
	}
	// One sweep of the owner array counts every departed VM's frames.
	lo, hi := s.Departed[0].ID, s.Departed[0].ID
	for _, inst := range s.Departed {
		lo, hi = min(lo, inst.ID), max(hi, inst.ID)
	}
	owned := s.Machine.OwnedByRange(memsim.Owner(lo), memsim.Owner(hi))
	for _, inst := range s.Departed {
		if leaked := owned[inst.ID-lo]; leaked != 0 {
			return fmt.Errorf("departed VM %d: %d machine frames leaked", inst.ID, leaked)
		}
		// Restored snapshots carry departed VMs as result-only stubs
		// (no guest OS to interrogate); the frame-leak check above
		// still covers them.
		if inst.OS != nil {
			if err := inst.OS.P2MEmpty(); err != nil {
				return fmt.Errorf("departed VM %d: %w", inst.ID, err)
			}
		}
	}
	return nil
}
