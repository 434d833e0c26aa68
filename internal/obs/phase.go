package obs

import (
	"time"

	"heteroos/internal/metrics"
)

// Phase identifies one instrumented stage of the per-VM epoch loop.
// The taxonomy follows the paper's decomposition of hypervisor work:
// guest access generation, page-table scanning, hot/cold ranking,
// migration, balloon/DRF balancing, and machine-model pricing.
type Phase uint8

const (
	// PhaseWorkload is the guest access-stream step.
	PhaseWorkload Phase = iota
	// PhaseScan is the page-table/bitmap scan pass.
	PhaseScan
	// PhaseRank is hot/cold ranking and index queries.
	PhaseRank
	// PhaseMigrate is page movement between tiers.
	PhaseMigrate
	// PhaseBalance is guest-OS epoch balancing plus balloon/DRF work.
	PhaseBalance
	// PhaseCharge is backend MPKI pricing and epoch cost charging.
	PhaseCharge

	numPhases
)

// phaseNames are the wire/metric names, index-matched to the constants.
var phaseNames = [numPhases]string{
	"workload", "scan", "rank", "migrate", "balance", "charge",
}

// String names the phase.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Phases lists every phase in epoch-loop order (for renderers).
func Phases() []Phase {
	out := make([]Phase, numPhases)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}

// PhaseProfiler records per-phase costs into a scope's registry: the
// simulated cost charged by the phase ("phase.scan.sim_ns") and the
// host wall-clock time spent computing it ("phase.scan.wall_ns").
// Histograms are preregistered at construction, so Observe calls are
// pure instrument updates — no map lookups, no allocation. A nil
// profiler disables every method, preserving the obs-off contract.
type PhaseProfiler struct {
	sim  [numPhases]*Histogram
	wall [numPhases]*Histogram
}

// NewPhaseProfiler preregisters the phase histograms on reg. Returns
// nil when reg is nil, so wiring stays a one-liner at boot.
func NewPhaseProfiler(reg *Registry) *PhaseProfiler {
	if reg == nil {
		return nil
	}
	p := &PhaseProfiler{}
	for i := 0; i < int(numPhases); i++ {
		p.sim[i] = reg.Histogram("phase." + phaseNames[i] + ".sim_ns")
		p.wall[i] = reg.Histogram("phase." + phaseNames[i] + ".wall_ns")
	}
	return p
}

// ObserveSim records ns of simulated cost charged by ph this epoch.
func (p *PhaseProfiler) ObserveSim(ph Phase, ns float64) {
	if p == nil {
		return
	}
	p.sim[ph].Observe(ns)
}

// ObserveWallSince records the wall-clock time elapsed since t0.
// Call sites use the explicit t0 := time.Now() ... ObserveWallSince
// pattern rather than defer closures, which would allocate.
func (p *PhaseProfiler) ObserveWallSince(ph Phase, t0 time.Time) {
	if p == nil {
		return
	}
	p.wall[ph].Observe(float64(time.Since(t0)))
}

// PhaseTable renders the phase breakdown recorded in s (any mix of
// scopes — the snapshot is rolled up first, so per-VM phase histograms
// aggregate into one row per phase). Columns: observation count, total
// and mean simulated ns, total and mean wall ns, and wall p99.
func PhaseTable(s Snapshot, title string) *metrics.Table {
	r := s.Rollup()
	t := metrics.NewTable(title, "phase", "passes",
		"sim_total_ns", "sim_mean_ns", "wall_total_ns", "wall_mean_ns", "wall_p99_ns")
	for _, ph := range Phases() {
		simV := r.Find("phase." + ph.String() + ".sim_ns")
		wallV := r.Find("phase." + ph.String() + ".wall_ns")
		// Histograms are preregistered, so "absent" means zero samples
		// in both series: skip the phase, it never ran.
		if (simV == nil || simV.Value == 0) && (wallV == nil || wallV.Value == 0) {
			continue
		}
		var passes, simTot, simMean, wallTot, wallMean, wallP99 float64
		if simV != nil {
			passes = simV.Value
			simTot = simV.Sum
			if simV.Value > 0 {
				simMean = simV.Sum / simV.Value
			}
		}
		if wallV != nil {
			if wallV.Value > passes {
				passes = wallV.Value
			}
			wallTot = wallV.Sum
			if wallV.Value > 0 {
				wallMean = wallV.Sum / wallV.Value
			}
			wallP99 = wallV.Quantile(0.99)
		}
		t.AddRow(ph.String(), passes, simTot, simMean, wallTot, wallMean, wallP99)
	}
	return t
}

// HasPhaseData reports whether s contains any phase-profiler samples.
func HasPhaseData(s Snapshot) bool {
	for i := range s.Values {
		v := &s.Values[i]
		if v.Kind == KindHistogram && v.Value > 0 &&
			len(v.Name) > 6 && v.Name[:6] == "phase." {
			return true
		}
	}
	return false
}
