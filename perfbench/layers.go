package main

import (
	"fmt"
	"sort"
	"time"

	"heteroos/internal/fleet"
	"heteroos/internal/obs"
)

// layerUnits lists every per-layer metric, in BENCHMARK.json order,
// with its unit. A traced run prints all of them; a layer the workload
// does not exercise reads 0 (README.md says which apply where).
var layerUnits = []struct{ name, unit string }{
	{"runner.cells", "count"},
	{"runner.cell_p50_s", "s"},
	{"runner.cell_max_s", "s"},
	{"runner.busy_frac", "ratio"},
	{"core.vm_epochs", "count"},
	{"core.epoch_us", "us"},
	{"phase.workload.wall_s", "s"},
	{"phase.workload.share", "ratio"},
	{"phase.balance.wall_s", "s"},
	{"phase.balance.share", "ratio"},
	{"phase.scan.wall_s", "s"},
	{"phase.scan.share", "ratio"},
	{"phase.rank.wall_s", "s"},
	{"phase.rank.share", "ratio"},
	{"phase.migrate.wall_s", "s"},
	{"phase.migrate.share", "ratio"},
	{"phase.charge.wall_s", "s"},
	{"phase.charge.share", "ratio"},
	{"guestos.reclaim_passes", "count"},
	{"guestos.reclaim_freed_pages", "count"},
	{"guestos.lru_rotations", "count"},
	{"guestos.reclaim_yield", "ratio"},
	{"guestos.fast_alloc_miss_ratio", "ratio"},
	{"guestos.promotions", "count"},
	{"guestos.demotions", "count"},
	{"guestos.cache_evictions", "count"},
	{"guestos.balloon_pages_in", "count"},
	{"vmm.scan_passes", "count"},
	{"vmm.pages_scanned", "count"},
	{"vmm.scan_yield", "ratio"},
	{"vmm.migrate_promoted", "count"},
	{"memsim.charges", "count"},
	{"memsim.charge_ns", "ns"},
	{"memsim.charge_share", "ratio"},
	{"fleet.round_p50_s", "s"},
	{"fleet.round_max_s", "s"},
	{"fleet.result_s", "s"},
	{"fleet.migrations", "count"},
	{"fleet.lost_vms", "count"},
	{"fleet.host_epochs", "count"},
	{"go.mallocs", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// layerMetrics reports the per-layer metrics: layer attribution from the
// traced repetition, CPU per epoch and Go runtime counts from the
// untraced one (tracing costs time and allocates), and the tracing
// overhead between the two.
func layerMetrics(plain, traced sample, put func(name, unit string, v float64)) {
	l := traced.layer
	if l == nil {
		l = map[string]float64{}
	}
	l["core.vm_epochs"] = float64(traced.vmEpochs)
	if plain.vmEpochs > 0 {
		l["core.epoch_us"] = float64(plain.cpu.Microseconds()) / float64(plain.vmEpochs)
	}
	if traced.vmEpochs > 0 {
		l["memsim.charge_ns"] = float64(traced.chargeDur.Nanoseconds()) / float64(traced.vmEpochs)
	}
	if traced.cpu > 0 {
		l["memsim.charge_share"] = traced.chargeDur.Seconds() / traced.cpu.Seconds()
	}
	l["go.mallocs"] = float64(plain.mallocs)
	l["go.gc_cycles"] = float64(plain.gcCount)
	if plain.cpu > 0 {
		l["go.gc_cpu_frac"] = plain.gcCPU / plain.cpu.Seconds()
	}
	if plain.wall > 0 {
		l["trace.overhead_frac"] = traced.wall.Seconds()/plain.wall.Seconds() - 1
	}
	for _, m := range layerUnits {
		put(m.name, m.unit, l[m.name])
	}
}

// spanLayers fills the runner metrics from per-operation host spans
// (sweep cells, or fleet host steps) over busy time available to the
// pool.
func spanLayers(l map[string]float64, spans []time.Duration, poolTime time.Duration) {
	if len(spans) == 0 {
		return
	}
	s := make([]float64, len(spans))
	var total float64
	for i, d := range spans {
		s[i] = d.Seconds()
		total += s[i]
	}
	sort.Float64s(s)
	l["runner.cells"] = float64(len(s))
	l["runner.cell_p50_s"] = median(s)
	l["runner.cell_max_s"] = s[len(s)-1]
	l["runner.busy_frac"] = total / (workers * poolTime.Seconds())
}

// obsLayers reads the phase profile and the guest, VMM and pricing
// counters out of a rolled-up snapshot.
func obsLayers(l map[string]float64, snap obs.Snapshot) {
	value := func(name string) float64 {
		if v := snap.Find(name); v != nil {
			return v.Value
		}
		return 0
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	// rank runs inside migrate (the scanner's ranking queries), so it is
	// left out of the epoch total the shares divide by.
	var epoch float64
	for _, ph := range obs.Phases() {
		var s float64
		if v := snap.Find("phase." + ph.String() + ".wall_ns"); v != nil {
			s = v.Sum / 1e9
		}
		l["phase."+ph.String()+".wall_s"] = s
		if ph != obs.PhaseRank {
			epoch += s
		}
	}
	for _, ph := range obs.Phases() {
		l["phase."+ph.String()+".share"] = ratio(l["phase."+ph.String()+".wall_s"], epoch)
	}
	for _, n := range []string{
		"guestos.reclaim_passes", "guestos.reclaim_freed_pages", "guestos.lru_rotations",
		"guestos.promotions", "guestos.demotions", "guestos.cache_evictions",
		"guestos.balloon_pages_in",
		"vmm.scan_passes", "vmm.pages_scanned", "vmm.migrate_promoted",
		"memsim.charges",
	} {
		l[n] = value(n)
	}
	freed := l["guestos.reclaim_freed_pages"]
	l["guestos.reclaim_yield"] = ratio(freed, freed+l["guestos.lru_rotations"])
	l["guestos.fast_alloc_miss_ratio"] = ratio(value("guestos.fast_alloc_misses"), value("guestos.fast_alloc_requests"))
	l["vmm.scan_yield"] = ratio(value("vmm.pages_referenced"), l["vmm.pages_scanned"])
}

// sweepLayers attributes a traced sweep: cell spans from the meters,
// everything else from the cells' observability handles. It also
// checks that the two agree on the number of priced epochs.
func sweepLayers(r *rep, p *sweepProbe) {
	l := map[string]float64{}
	var spans []time.Duration
	for _, m := range p.meters {
		if m.charges > 0 {
			spans = append(spans, m.last.Sub(m.built))
		}
		r.chargeDur += m.chargeDur
	}
	spanLayers(l, spans, r.wall)
	var snap obs.Snapshot
	for _, h := range p.handles {
		snap = snap.Merge(h.Metrics.Snapshot().Rollup())
	}
	obsLayers(l, snap)
	checkEpochs(r, snap)
	r.layer = l
}

// checkEpochs cross-checks the decorator's Charge count against the
// epochs core and memsim counted.
func checkEpochs(r *rep, snap obs.Snapshot) {
	for _, n := range []string{"core.epochs", "memsim.charges"} {
		if v := snap.Find(n); v == nil || uint64(v.Value) != r.vmEpochs {
			got := 0.0
			if v != nil {
				got = v.Value
			}
			r.fail(r.ops, "%s counted %.0f epochs, the backend priced %d", n, got, r.vmEpochs)
		}
	}
}

// fleetProbe wraps every host's backend in a timed meter. The fleet has
// no backend hook, so the meters go onto the hosts' System.Backend
// fields, which Cluster.Result exposes, before the first round.
type fleetProbe struct {
	meters []*meter
	hosts  []fleet.HostRun
	rounds []time.Duration
	spans  []time.Duration // one per host step: first to last Charge of a round
	result time.Duration
	// charges and chargeDur accumulate the meters' per-round counts.
	charges   uint64
	chargeDur time.Duration
}

func newFleetProbe(c *fleet.Cluster) (*fleetProbe, error) {
	res, err := c.Result()
	if err != nil {
		return nil, fmt.Errorf("before round 0: %w", err)
	}
	p := &fleetProbe{hosts: res.HostRuns}
	for _, h := range res.HostRuns {
		m := &meter{Backend: h.Sys.Backend}
		h.Sys.Backend = m
		p.meters = append(p.meters, m)
	}
	return p, nil
}

// endRound collects each host step's span after the round's barrier
// and resets the meters for the next round.
func (p *fleetProbe) endRound(wall time.Duration) {
	p.rounds = append(p.rounds, wall)
	for _, m := range p.meters {
		if m.charges == 0 {
			continue
		}
		p.spans = append(p.spans, m.last.Sub(m.first))
		p.charges += m.charges
		p.chargeDur += m.chargeDur
		m.charges, m.chargeDur = 0, 0
	}
}

func fleetLayers(r *rep, p *fleetProbe, res *fleet.Result) {
	l := map[string]float64{}
	var pool time.Duration
	rounds := make([]float64, len(p.rounds))
	for i, d := range p.rounds {
		pool += d
		rounds[i] = d.Seconds()
	}
	spanLayers(l, p.spans, pool)
	sort.Float64s(rounds)
	l["fleet.round_p50_s"] = median(rounds)
	l["fleet.round_max_s"] = rounds[len(rounds)-1]
	l["fleet.result_s"] = p.result.Seconds()
	l["fleet.migrations"] = float64(len(res.Migrations))
	var lost, epochs int
	for i := range res.VMs {
		if res.VMs[i].Lost {
			lost++
		}
	}
	for _, h := range res.HostRuns {
		epochs += h.Epochs
	}
	l["fleet.lost_vms"] = float64(lost)
	l["fleet.host_epochs"] = float64(epochs)

	// Roll each host up on its own: one snapshot of the whole tree
	// would hold every VM's instruments at once.
	var snap obs.Snapshot
	for _, h := range p.hosts {
		snap = snap.Merge(h.Obs.Metrics.Snapshot().Rollup())
	}
	obsLayers(l, snap)
	r.chargeDur = p.chargeDur
	if p.charges != r.vmEpochs {
		r.fail(r.ops, "the backends priced %d epochs, the VM results count %d", p.charges, r.vmEpochs)
	}
	checkEpochs(r, snap)
	r.layer = l
}
