package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"heteroos/internal/guestos"
	"heteroos/internal/memsim"
	"heteroos/internal/obs"
	"heteroos/internal/policy"
	"heteroos/internal/sim"
	"heteroos/internal/vmm"
)

// Sentinel run errors. Callers match them with errors.Is; the wrapped
// message carries the VM and epoch context.
var (
	// ErrWorkloadStalled reports a workload Step that retired no
	// instructions without declaring completion.
	ErrWorkloadStalled = errors.New("workload stalled")
	// ErrEpochBudget reports a run that exhausted Config.MaxEpochs
	// before every VM finished.
	ErrEpochBudget = errors.New("epoch budget exhausted")
)

// maxScanPassesPerEpoch bounds timer-driven scan passes charged within
// one epoch, so a pathologically slow epoch cannot stall the simulation.
const maxScanPassesPerEpoch = 64

// stallProbeNs is the simulated cost of one retry probe against a
// stalled migration engine (a hypercall-sized poke, not a scan pass).
const stallProbeNs = 2000.0

// stallRetrySlot reports whether the n-th consecutive stalled pass is a
// backoff retry slot: exponential at 1, 2, 4, 8, then every 8th pass.
// The schedule is bounded — retries never stop entirely, so the engine
// recovers within at most 8 passes of the stall clearing no matter how
// long the window was.
func stallRetrySlot(n int) bool {
	return n == 1 || n == 2 || n == 4 || n%8 == 0
}

// StepEpoch advances every live, unfinished VM by one lockstep epoch
// and increments the system epoch counter. It reports alive=false when
// no VM remains running — either all finished or all departed. The
// fleet engine drives every host through this instead of Run,
// interleaving lifecycle events and fault injection between epochs.
func (s *System) StepEpoch() (alive bool, err error) {
	for _, inst := range s.VMs {
		if inst.Done {
			continue
		}
		alive = true
		if err := s.stepVM(inst); err != nil {
			return true, fmt.Errorf("core: VM %d epoch %d: %w", inst.ID, s.epochs, err)
		}
	}
	if alive {
		s.epochs++
		// Live exporters (heterosim -listen) subscribe through the obs
		// epoch hook; nil-safe, so the obs-off path pays nothing.
		s.Cfg.Obs.EpochTick(s.epochs)
	}
	return alive, nil
}

// stepVM advances one VM by one epoch. A guest kernel panic — the
// guest exhausting memory it cannot run without — is contained here:
// the step fails with an error attributed to the VM instead of
// crashing the whole simulation. Any other panic is a simulator bug
// and propagates.
func (s *System) stepVM(inst *VMInstance) (err error) {
	defer func() {
		if r := recover(); r != nil {
			gp, ok := r.(*guestos.GuestPanic)
			if !ok {
				panic(r)
			}
			err = gp
		}
	}()
	prof := inst.W.Profile()

	// pt carries the phase profiler's wall-clock anchors. Explicit
	// time.Now()/ObserveWallSince pairs (never defer closures, which
	// allocate) and every time.Now is behind an inst.phases nil check,
	// so unprofiled runs never touch the host clock here.
	var pt time.Time

	// 1. Application work against the guest OS.
	if inst.phases != nil {
		pt = time.Now()
	}
	instr, done := inst.W.Step(inst.OS)
	if instr == 0 && !done {
		return ErrWorkloadStalled
	}
	inst.phases.ObserveWallSince(obs.PhaseWorkload, pt)

	// 2. Guest epoch maintenance first: watermark reclaim restores the
	// FastMem free buffer that coordinated promotion lands in. Balloon
	// traffic and reclaim both happen here, so this is the balance phase.
	if inst.phases != nil {
		pt = time.Now()
	}
	inst.OS.EndEpoch()
	inst.phases.ObserveWallSince(obs.PhaseBalance, pt)

	// 3. Hotness tracking + migration. The scanner runs on a wall-clock
	// cadence (every scan interval of *simulated* time), so memory-bound
	// configurations — whose epochs take longer — receive proportionally
	// more scan passes and pay proportionally more tracking cost,
	// exactly like the real 100 ms timer-driven scanner.
	if inst.scanner != nil {
		interval := 100 * sim.Millisecond
		if inst.interval != nil {
			interval = inst.interval.Current()
		}
		interval *= sim.Duration(inst.scanEvery)
		passes := 0
		for inst.scanDebt >= interval && passes < maxScanPassesPerEpoch {
			inst.scanDebt -= interval
			passes++
			if inst.stallMigration {
				// Injected migration-engine stall: the pass is skipped,
				// but the engine re-probes the stalled channel on an
				// exponential backoff schedule (passes 1, 2, 4, 8, then
				// every 8th), charging a small probe cost. scanDebt is
				// consumed either way, so a stall degrades a VM but can
				// never deadlock the epoch loop.
				inst.stallSkips++
				inst.Res.MigrationStalledPasses++
				if stallRetrySlot(inst.stallSkips) {
					inst.Res.MigrationStallRetries++
					inst.OS.AddOSTime(stallProbeNs)
					if inst.obsScope != nil {
						inst.obsScope.Emit(obs.EvMigrationStall, obs.DirNone,
							obs.TierNone, 0, 1, uint64(inst.stallSkips), stallProbeNs)
					}
				}
				continue
			}
			switch inst.Mode.Migration {
			case policy.MigrateVMMExclusive:
				if inst.phases != nil {
					pt = time.Now()
				}
				res := inst.scanner.ScanNext()
				if inst.phases != nil {
					inst.phases.ObserveWallSince(obs.PhaseScan, pt)
					inst.phases.ObserveSim(obs.PhaseScan, res.CostNs)
					pt = time.Now()
				}
				st := inst.migrator.Rebalance(inst.VM, inst.scanner, s.Cfg.movesPerPass())
				if inst.phases != nil {
					// The rebalance wall time includes its ranking queries,
					// which the scanner also reports under the rank phase;
					// rank is a nested breakdown of migrate, not a sibling.
					inst.phases.ObserveWallSince(obs.PhaseMigrate, pt)
					inst.phases.ObserveSim(obs.PhaseMigrate, st.CostNs)
				}
				inst.OS.AddOSTime(res.CostNs + st.CostNs)
				inst.Res.ScanCostNs += res.CostNs
				inst.Res.MigrateCostNs += st.CostNs
				inst.Res.VMMMigrations += uint64(st.Promoted + st.Demoted)
				inst.Res.ScanPasses++
			case policy.MigrateCoordinated:
				moves := s.Cfg.movesPerPass()
				if moves > inst.moveBudget {
					moves = inst.moveBudget
				}
				if !inst.OS.PromotionWorthwhile() {
					// Promotions have stopped paying: drop to a probe
					// rate and skip most scan passes too — tracking cost
					// without migration benefit is pure overhead
					// (Observation 4).
					if moves > 2 {
						moves = 2
					}
					inst.throttledPasses++
					if inst.throttledPasses%8 != 0 {
						continue
					}
				}
				// The coordinated pass fuses scan, rank, and migrate and
				// times each step itself through the scanner's phase
				// hook; only its simulated scan charge is booked here.
				st := vmm.CoordinatedPass(inst.VM, inst.scanner, inst.OS, moves)
				inst.phases.ObserveSim(obs.PhaseScan, st.ScanNs)
				inst.moveBudget -= st.Promoted + st.Demoted
				inst.OS.AddOSTime(st.ScanNs)
				inst.Res.ScanCostNs += st.ScanNs
				inst.Res.ScanPasses++
			}
		}
		if passes == maxScanPassesPerEpoch {
			inst.scanDebt = 0 // shed unpayable debt
		}
	}

	// 4. Drain the epoch's accounting (includes scan/migration charges).
	st := inst.OS.DrainEpoch()

	// 5. Convert the epoch's work into LLC-miss traffic. Total miss
	// volume comes from the workload's MPKI rescaled for the platform
	// LLC (the backend owns the rescale: analytic applies the power-law
	// miss curve); the per-tier split follows the observed touch
	// distribution.
	effMPKI := s.Backend.EffectiveMPKI(s.Cfg.LLC, prof.MPKI, prof.WSSBytes)
	totalMisses := float64(instr) / 1000 * effMPKI

	var loads, stores [memsim.NumTiers]float64
	var totLoads, totStores float64
	for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
		loads[t] = float64(st.UserLoads[t])
		stores[t] = float64(st.UserStores[t])
		totLoads += loads[t]
		totStores += stores[t]
	}
	missStores := totalMisses * prof.StoreMissFrac
	missLoads := totalMisses - missStores

	charge := memsim.EpochCharge{
		Instr:            instr,
		Threads:          prof.Threads,
		MLP:              prof.MLP,
		BytesPerMiss:     prof.BytesPerMiss,
		StoreVisibleFrac: 0.35,
		OSTime:           sim.Duration(st.OSTimeNs),
	}
	for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
		var lm, sm float64
		if totLoads > 0 {
			lm = missLoads * loads[t] / totLoads
		}
		if totStores > 0 {
			sm = missStores * stores[t] / totStores
		} else if totLoads > 0 {
			// Store misses follow the load distribution when the epoch
			// recorded no explicit stores.
			sm = missStores * loads[t] / totLoads
		}
		charge.Traffic[t] = memsim.TierTraffic{
			LoadMisses:  uint64(lm),
			StoreMisses: uint64(sm),
		}
	}

	if inst.phases != nil {
		pt = time.Now()
	}
	cost := s.Backend.Charge(charge)
	if inst.phases != nil {
		inst.phases.ObserveWallSince(obs.PhaseCharge, pt)
		inst.phases.ObserveSim(obs.PhaseCharge, float64(cost.Total))
	}
	inst.Clock.Advance(cost.Total)
	inst.scanDebt += cost.Total
	// The coordinated migration budget scales with how well promotions
	// have been paying: spend aggressively while each move keeps earning
	// its Table 6 cost back, trickle otherwise.
	accrual := coordMovesPerEpoch
	if rate := inst.OS.PromoteRate(); rate > 0.5 {
		accrual *= 1 + int(8*rate)
	}
	inst.moveBudget += accrual
	if inst.moveBudget > 16*coordMovesPerEpoch {
		inst.moveBudget = 16 * coordMovesPerEpoch
	}

	// 6. Adaptive interval (Equation 1): fold this epoch's miss count.
	if inst.interval != nil {
		inst.interval.Update(totalMisses)
	}

	// 7. Accumulate results.
	if s.Cfg.Trace {
		freePct := inst.fastFreePct()
		if inst.TraceLog == nil {
			// One up-front allocation sized for the whole run keeps the
			// epoch hot path free of append growth.
			inst.TraceLog = make([]EpochTrace, 0, s.Cfg.MaxEpochs)
		}
		inst.TraceLog = append(inst.TraceLog, EpochTrace{
			Epoch:       inst.Res.Epochs + 1,
			Total:       cost.Total,
			CPU:         cost.CPUTime,
			MemFast:     cost.MemTime[memsim.FastMem],
			MemSlow:     cost.MemTime[memsim.SlowMem],
			OS:          cost.OSTime,
			FastMisses:  cost.Misses[memsim.FastMem],
			SlowMisses:  cost.Misses[memsim.SlowMem],
			Demotions:   st.Demotions,
			Promotions:  st.Promotions,
			FastFreePct: freePct,
		})
	}
	r := &inst.Res
	r.Epochs++
	r.Instr += instr
	r.SimTime = sim.Duration(inst.Clock.Now())
	r.CPUTime += cost.CPUTime
	r.OSTime += cost.OSTime
	for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
		r.MemTime[t] += cost.MemTime[t]
		r.Misses[t] += cost.Misses[t]
		r.BytesOut[t] += cost.BytesOut[t]
	}
	r.Faults += st.Faults
	r.SwapIns += st.SwapIns
	r.SwapOuts += st.SwapOuts
	r.Demotions += st.Demotions
	r.Promotions += st.Promotions
	r.CacheEvictions += st.CacheEvictions
	r.DiskReadPages += st.DiskReadPages
	r.DiskWritePages += st.DiskWritePages
	r.BalloonPagesIn += st.BalloonPagesIn
	r.BalloonRefusedPages += st.BalloonRefusedPages
	if inst.probes != nil {
		inst.probes.observeEpoch(&cost, inst.fastFreePct(), inst.moveBudget)
	}

	if done {
		inst.Done = true
		s.finalizeResult(inst)
	}
	return nil
}

// finalizeResult fills the result fields computed from final guest
// state. Called when the workload completes or, for a mid-run shutdown,
// just before the guest is torn down (the census must be taken while
// the P2M is still intact).
func (s *System) finalizeResult(inst *VMInstance) {
	r := &inst.Res
	r.FastAllocRequests = sumKinds(inst.OS.WindowLife.Requests)
	r.FastAllocMisses = sumKinds(inst.OS.WindowLife.Misses)
	r.FinalCensus = inst.OS.PageCensus()
	r.CumAllocs = inst.OS.Cum.AllocsByKind
	r.NetBufChurnPages, r.SlabChurnPages = inst.OS.SlabChurnPageEquivalents()
}

func sumKinds(a [guestos.NumKinds]uint64) uint64 {
	var n uint64
	for _, v := range a {
		n += v
	}
	return n
}

// Run builds the system cfg describes, runs every VM to completion (or
// MaxEpochs) under ctx and checks the system's invariants: the one way
// to run a simulation from start to end. VMs step in lockstep so
// multi-VM memory contention (grants, ballooning, DRF) interleaves
// realistically. Cancellation is checked once per epoch: a cancelled
// context stops the run within one epoch and returns ctx.Err(). The
// system is returned whenever it booted, so a caller can inspect a run
// that failed or was cancelled part way; per-VM results are in
// System.VMs (or VMResultByID).
func Run(ctx context.Context, cfg Config) (*System, error) {
	s, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	for s.epochs < s.Cfg.MaxEpochs {
		if err := ctx.Err(); err != nil {
			return s, err
		}
		alive, err := s.StepEpoch()
		if err != nil {
			return s, err
		}
		if !alive {
			break
		}
	}
	for _, inst := range s.VMs {
		if !inst.Done {
			return s, fmt.Errorf("core: VM %d did not finish within %d epochs: %w",
				inst.ID, s.Cfg.MaxEpochs, ErrEpochBudget)
		}
	}
	return s, s.CheckInvariants()
}
