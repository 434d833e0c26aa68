package vmm

import (
	"heteroos/internal/guestos"
	"heteroos/internal/memsim"
	"heteroos/internal/obs"
)

// MigrateCosts prices VMM-level page movement, matching Table 6's
// per-page walk + copy costs with batch amortisation.
type MigrateCosts struct {
	// BatchPages selects the amortisation point of Table 6, in real
	// (unscaled) pages.
	BatchPages int
	// TLBFlushNs per batch after remapping.
	TLBFlushNs float64
	// CostScale is the capacity scale factor: one simulated page move
	// stands for CostScale real page moves (default 1).
	CostScale float64
}

// DefaultMigrateCosts uses Table 6's 64K-page batch (HeteroVisor batches
// its tracking and migration work).
func DefaultMigrateCosts() MigrateCosts {
	return MigrateCosts{BatchPages: 64 * 1024, TLBFlushNs: 12000, CostScale: 1}
}

// perPageNs returns walk+copy cost per simulated page at the configured
// batch.
func (c MigrateCosts) perPageNs() float64 {
	walk, cp := guestos.MigrationBatchCosts(c.BatchPages)
	scale := c.CostScale
	if scale <= 0 {
		scale = 1
	}
	return (walk + cp) * scale
}

// MigrateStats reports one rebalance pass.
type MigrateStats struct {
	Promoted int // slow→fast moves
	Demoted  int // fast→slow moves (evictions of LRU-cold hot pages)
	CostNs   float64
}

// Migrator is the VMM-exclusive (HeteroVisor) migration engine: after a
// hotness scan it promotes hot SlowMem-backed pages into FastMem and
// evicts the least-recently-hot FastMem pages to make room. It operates
// entirely on backing frames (SetBackingMFN) — the guest never knows —
// which is precisely why it cannot see page deallocations or short-lived
// I/O pages (Observation 5's critique).
type Migrator struct {
	costs MigrateCosts
	// obs, when attached, carries the migrator's observability probes.
	obs *migratorProbes
}

// NewMigrator builds a migrator.
func NewMigrator(costs MigrateCosts) *Migrator {
	return &Migrator{costs: costs}
}

// Rebalance promotes up to maxMoves hot SlowMem pages of vm into
// FastMem. When FastMem is full it frees room by demoting the coldest
// FastMem-backed pages first. Every byte moved is charged.
func (g *Migrator) Rebalance(vm *VM, scanner *Scanner, maxMoves int) MigrateStats {
	var st MigrateStats
	machine := vm.vmm.Machine
	// hot and the per-iteration cold lookups below are served from the
	// scanner's separate hot/cold scratch buffers, so hot stays valid
	// while ColdestIn is re-issued inside the loop.
	hot := scanner.HottestIn(memsim.SlowMem, maxMoves)
	if len(hot) == 0 {
		return st
	}
	perPage := g.costs.perPageNs()

	for _, pfn := range hot {
		// Ensure a free FastMem frame, demoting a cold page if needed.
		if machine.FreeFrames(memsim.FastMem) == 0 {
			cold := scanner.ColdestIn(memsim.FastMem, 1)
			if len(cold) == 0 {
				break // FastMem full of hot pages: stop promoting
			}
			if !g.moveBacking(vm, cold[0], memsim.SlowMem) {
				break // SlowMem exhausted too
			}
			st.Demoted++
			st.CostNs += perPage
			if g.obs != nil {
				g.obs.move(obs.DirVMMDemote, obs.TierSlow, uint64(cold[0]), perPage)
			}
		}
		if !g.moveBacking(vm, pfn, memsim.FastMem) {
			break
		}
		st.Promoted++
		st.CostNs += perPage
		if g.obs != nil {
			g.obs.move(obs.DirVMMPromote, obs.TierFast, uint64(pfn), perPage)
		}
	}
	if moves := st.Promoted + st.Demoted; moves > 0 {
		scale := g.costs.CostScale
		if scale <= 0 {
			scale = 1
		}
		realMoves := float64(moves) * scale
		st.CostNs += (1 + realMoves/float64(g.costs.BatchPages)) * g.costs.TLBFlushNs
	}
	return st
}

// moveBacking swaps pfn's backing frame to a free frame of tier, biasing
// the scan history the same way guest migrations do (promoted pages
// arrive presumed-hot, demoted presumed-cold) so a moved page needs
// fresh evidence before moving back.
func (g *Migrator) moveBacking(vm *VM, pfn guestos.PFN, tier memsim.Tier) bool {
	snap := vm.View.Snapshot(pfn)
	if snap.MFN == memsim.NilMFN {
		return false
	}
	newMFN, ok := vm.allocForMigration(tier)
	if !ok {
		return false
	}
	vm.View.SetBackingMFN(pfn, newMFN)
	vm.freeFromMigration(snap.MFN)
	if tier == memsim.FastMem {
		vm.View.SetScanHeat(pfn, 8)
	} else {
		vm.View.SetScanHeat(pfn, 0)
	}
	return true
}

// CoordinatedStats reports one coordinated pass.
type CoordinatedStats struct {
	Scanned  int
	Hot      int
	Promoted int
	Demoted  int
	ScanNs   float64
}

// GuestMigrator is the guest-side executor the coordinated path hands
// hot pages to ("the actual migrations are performed in the guest-OS").
// *guestos.OS satisfies it.
type GuestMigrator interface {
	PromotePage(pfn guestos.PFN) bool
	DemotePage(pfn guestos.PFN) bool
	// DemotePageForSwap skips the guest's recency guard (the tracker's
	// score margin justified displacing an actively used page).
	DemotePageForSwap(pfn guestos.PFN) bool
}

// coordHeatMargin is the minimum heat advantage a SlowMem page must have
// over the FastMem page it would displace: migrating near-ties would
// cost two page moves for no expected benefit.
const coordHeatMargin = 3

// CoordinatedPass runs one coordinated tracking+migration round: the
// guest exports its tracking list, the VMM scans only those pages, ranks
// the hottest SlowMem-resident against the coldest FastMem-resident
// pages, and the guest performs the validated swaps (promotion displaces
// a colder page when FastMem has no free headroom). The scan cost is
// charged to the VM (the stall is on its vCPUs); migration costs are
// charged inside the guest. With a phase profiler attached to the
// scanner, the tracking-list export and scan land in the scan phase and
// the rest of the pass in the migrate phase (its ranking queries also
// in the rank phase, which nests inside migrate).
func CoordinatedPass(vm *VM, scanner *Scanner, guest GuestMigrator, maxMoves int) CoordinatedStats {
	var st CoordinatedStats
	t0 := scanner.phaseStart()
	res := scanner.ScanTracked(vm.View.TrackingList())
	scanner.phaseDone(obs.PhaseScan, t0)
	defer scanner.phaseDone(obs.PhaseMigrate, scanner.phaseStart())
	st.Scanned = res.Scanned
	st.ScanNs = res.CostNs
	if maxMoves <= 0 {
		return st
	}

	// hot/cold live in the scanner's polarity-separated scratch buffers:
	// both lists are held simultaneously, and CoolestIn below may
	// overwrite cold (same polarity) but never hot.
	hot := scanner.HottestIn(memsim.SlowMem, maxMoves)
	st.Hot = len(hot)
	if len(hot) == 0 {
		return st
	}
	cold := scanner.ColdestIn(memsim.FastMem, len(hot))
	demote := guest.DemotePage
	margin := coordHeatMargin
	if len(cold) == 0 && scanner.TrackWrites && scanner.WriteBoost > 0 {
		// Write-aware mode: with no absolutely cold FastMem pages, rank
		// every resident page by score and let the margin decide whether
		// displacing a read-hot page for a write-hot one pays. The
		// guest's recency guard yields to the score margin, which is
		// tripled here — both pages are live, so only a decisive
		// store-intensity gap justifies paying for two moves.
		cold = scanner.CoolestIn(memsim.FastMem, len(hot))
		demote = guest.DemotePageForSwap
		margin = 3 * coordHeatMargin
	}
	ci := 0
	for _, pfn := range hot {
		// Every promotion is paired with a demotion of a decisively
		// colder page: capacity-neutral swaps never steal the free
		// headroom the allocator's on-demand placement depends on
		// (placement first, migration second — Principle 2 before 3).
		displaced := false
		for ci < len(cold) {
			victim := cold[ci]
			if int(scanner.score(pfn)) < int(scanner.score(victim))+margin {
				ci = len(cold) // remaining pairs are even less favourable
				break
			}
			ci++
			if demote(victim) {
				st.Demoted++
				displaced = true
				break
			}
		}
		if !displaced {
			break
		}
		if guest.PromotePage(pfn) {
			st.Promoted++
		}
	}
	return st
}
