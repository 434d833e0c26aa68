package exp

import (
	"context"
	"fmt"

	"heteroos/internal/core"
	"heteroos/internal/guestos"
	"heteroos/internal/memsim"
	"heteroos/internal/metrics"
	"heteroos/internal/policy"
	"heteroos/internal/vmm"
	"heteroos/internal/workload"
)

// sensitivityPoints are Figures 1/2's x-axis.
func sensitivityPoints(o Options) []memsim.Throttle {
	if o.Quick {
		return []memsim.Throttle{{L: 2, B: 2}, {L: 5, B: 9}}
	}
	return memsim.SensitivitySweep
}

// sensitivity runs the Figure 1/2 sweep on the given LLC.
func sensitivity(ctx context.Context, o Options, id, title string, llc memsim.LLC, remoteNUMA bool) (*Result, error) {
	points := sensitivityPoints(o)
	header := []string{"App"}
	for _, p := range points {
		header = append(header, p.String())
	}
	if remoteNUMA {
		header = append(header, "Remote NUMA")
	}
	t := metrics.NewTable(title, header...)
	t.Caption = "Slowdown factor relative to FastMem-only (L:1,B:1)"

	apps := evalApps(o)
	if !o.Quick {
		apps = append(apps, "Nginx")
	}
	type appCells struct {
		base   *cell
		points []*cell
		remote *cell
	}
	sw := newSweep(ctx, o)
	defer sw.close()
	rows := make([]appCells, len(apps))
	for i, app := range apps {
		rows[i].base = sw.submitOne(app, policy.FastMemOnly(), ratioPages(2), memsim.SlowTierSpec(), llc)
		for _, p := range points {
			rows[i].points = append(rows[i].points,
				sw.submitOne(app, policy.SlowMemOnly(), 0, p.Spec(), llc))
		}
		if remoteNUMA {
			rows[i].remote = sw.submitOne(app, policy.SlowMemOnly(), 0, memsim.RemoteNUMA, llc)
		}
	}
	for i, app := range apps {
		base, err := rows[i].base.result()
		if err != nil {
			return nil, err
		}
		row := []interface{}{app}
		for _, c := range rows[i].points {
			r, err := c.result()
			if err != nil {
				return nil, err
			}
			row = append(row, metrics.Slowdown(base.RuntimeSeconds(), r.RuntimeSeconds()))
		}
		if remoteNUMA {
			r, err := rows[i].remote.result()
			if err != nil {
				return nil, err
			}
			row = append(row, metrics.Slowdown(base.RuntimeSeconds(), r.RuntimeSeconds()))
		}
		t.AddRow(row...)
	}
	return &Result{ID: id, Table: t}, nil
}

// Figure1 reproduces the bandwidth/latency sensitivity study on the
// reference (16 MB LLC) platform, including the remote-NUMA comparison.
func Figure1(ctx context.Context, o Options) (*Result, error) {
	return sensitivity(ctx, o, "figure1",
		"Figure 1: Bandwidth and latency sensitivity (16MB LLC)",
		memsim.DefaultLLC(), true)
}

// Figure2 reproduces the Intel NVM emulator platform study (48 MB LLC).
func Figure2(ctx context.Context, o Options) (*Result, error) {
	return sensitivity(ctx, o, "figure2",
		"Figure 2: Intel NVM emulator sensitivity (48MB LLC)",
		memsim.EmulatorLLC(), false)
}

// Figure3 reproduces the FastMem capacity-impact sweep at L:5,B:9.
func Figure3(ctx context.Context, o Options) (*Result, error) {
	dens := []int{2, 4, 8, 16, 32}
	if o.Quick {
		dens = []int{2, 8}
	}
	header := []string{"App"}
	for _, d := range dens {
		header = append(header, fmt.Sprintf("1/%d", d))
	}
	t := metrics.NewTable("Figure 3: FastMem capacity impact", header...)
	t.Caption = "Slowdown relative to FastMem-only, on-demand placement, L:5,B:9"
	apps := evalApps(o)
	if !o.Quick {
		apps = append(apps, "Nginx")
	}
	type appCells struct {
		base *cell
		dens []*cell
	}
	sw := newSweep(ctx, o)
	defer sw.close()
	rows := make([]appCells, len(apps))
	for i, app := range apps {
		rows[i].base = sw.submitDefault(app, policy.FastMemOnly(), ratioPages(2))
		for _, d := range dens {
			rows[i].dens = append(rows[i].dens,
				sw.submitDefault(app, policy.HeapIOSlabOD(), ratioPages(d)))
		}
	}
	for i, app := range apps {
		base, err := rows[i].base.result()
		if err != nil {
			return nil, err
		}
		row := []interface{}{app}
		for _, c := range rows[i].dens {
			r, err := c.result()
			if err != nil {
				return nil, err
			}
			row = append(row, metrics.Slowdown(base.RuntimeSeconds(), r.RuntimeSeconds()))
		}
		t.AddRow(row...)
	}
	return &Result{ID: "figure3", Table: t}, nil
}

// Figure4 reproduces the page-type census: the distribution of pages
// allocated over each application's run, by Figure 4's categories.
func Figure4(ctx context.Context, o Options) (*Result, error) {
	t := metrics.NewTable("Figure 4: Application memory page distribution",
		"App", "heap/anon %", "I/O cache %", "NW-buff %", "Slab %", "Pagetable %", "Total pages (millions)")
	apps := []string{"Redis", "X-Stream", "GraphChi", "Metis", "LevelDB"}
	if o.Quick {
		apps = []string{"Redis", "LevelDB"}
	}
	sw := newSweep(ctx, o)
	defer sw.close()
	cells := make([]*cell, len(apps))
	for i, app := range apps {
		cells[i] = sw.submitDefault(app, policy.FastMemOnly(), ratioPages(2))
	}
	for i, app := range apps {
		r, err := cells[i].result()
		if err != nil {
			return nil, err
		}
		// Slab kinds recycle pages internally; the census uses object
		// churn converted to page equivalents, like the paper's
		// subsystem-level page accounting.
		netbuf, slabPages := r.NetBufChurnPages, r.SlabChurnPages
		counts := map[guestos.PageKind]float64{
			guestos.KindAnon:      float64(r.CumAllocs[guestos.KindAnon]),
			guestos.KindPageCache: float64(r.CumAllocs[guestos.KindPageCache]),
			guestos.KindNetBuf:    netbuf,
			guestos.KindSlab:      slabPages,
			guestos.KindPageTable: float64(r.CumAllocs[guestos.KindPageTable]),
		}
		total := 0.0
		for _, v := range counts {
			total += v
		}
		pct := func(k guestos.PageKind) float64 {
			if total == 0 {
				return 0
			}
			return 100 * counts[k] / total
		}
		realMillions := total * float64(workload.DefaultScale) / 1e6
		t.AddRow(app, pct(guestos.KindAnon), pct(guestos.KindPageCache),
			pct(guestos.KindNetBuf), pct(guestos.KindSlab), pct(guestos.KindPageTable),
			realMillions)
	}
	return &Result{ID: "figure4", Table: t}, nil
}

// microModes are the placement alternatives of Figures 6 and 7.
func microModes() []policy.Mode {
	return []policy.Mode{
		policy.SlowMemOnly(), policy.Random(), policy.HeapOD(),
		policy.FastMemOnly(), policy.VMMExclusive(),
	}
}

// submitMicro queues a microbenchmark with 0.5 GiB FastMem / 3.5 GiB
// SlowMem (Section 5.2's configuration).
func (s *sweep) submitMicro(label string, w workload.Workload, mode policy.Mode) *cell {
	fast := pages(512 * workload.MiB)
	slow := pages(3584 * workload.MiB)
	return s.submit(label, SingleVM(w, mode, fast, slow, s.o.seed()))
}

// microResult is one collected Figure 6/7 cell mapped through a metric.
func microSweep(ctx context.Context, o Options, wss []int64,
	build func(size int64) workload.Workload, metric func(*core.VMResult) float64,
	t *metrics.Table) error {
	sw := newSweep(ctx, o)
	defer sw.close()
	modes := microModes()
	cells := make([][]*cell, len(modes))
	for i, mode := range modes {
		for _, size := range wss {
			label := fmt.Sprintf("%s/%dMiB", mode.Name, size/workload.MiB)
			cells[i] = append(cells[i], sw.submitMicro(label, build(size), mode))
		}
	}
	for i, mode := range modes {
		row := []interface{}{mode.Name}
		for _, c := range cells[i] {
			r, err := c.result()
			if err != nil {
				return err
			}
			row = append(row, metric(r))
		}
		t.AddRow(row...)
	}
	return nil
}

// Figure6 reproduces the memlat latency microbenchmark: average memory
// access latency (cycles) across working-set sizes and placements.
func Figure6(ctx context.Context, o Options) (*Result, error) {
	wss := []int64{100 * workload.MiB, 256 * workload.MiB, 512 * workload.MiB,
		1 * workload.GiB, 3 * workload.GiB / 2, 2 * workload.GiB}
	if o.Quick {
		wss = []int64{256 * workload.MiB, workload.GiB}
	}
	header := []string{"Mode"}
	for _, w := range wss {
		header = append(header, fmt.Sprintf("%.2fGB", float64(w)/float64(workload.GiB)))
	}
	t := metrics.NewTable("Figure 6: memlat average latency (cycles)", header...)
	t.Caption = "0.5GB FastMem, 3.5GB SlowMem (L:5,B:9)"
	err := microSweep(ctx, o, wss,
		func(size int64) workload.Workload { return workload.NewMemLat(wcfg(o), size) },
		avgLatencyCycles, t)
	if err != nil {
		return nil, err
	}
	return &Result{ID: "figure6", Table: t}, nil
}

// avgLatencyCycles derives mean per-miss latency in CPU cycles.
func avgLatencyCycles(r *core.VMResult) float64 {
	misses := float64(r.Misses[memsim.FastMem] + r.Misses[memsim.SlowMem])
	if misses == 0 {
		return 0
	}
	memNs := float64(r.MemTime[memsim.FastMem] + r.MemTime[memsim.SlowMem])
	return memNs / misses * memsim.DefaultCPU().FreqGHz
}

// Figure7 reproduces the STREAM bandwidth microbenchmark.
func Figure7(ctx context.Context, o Options) (*Result, error) {
	wss := []int64{512 * workload.MiB, 3 * workload.GiB / 2}
	header := []string{"Mode"}
	for _, w := range wss {
		header = append(header, fmt.Sprintf("%.1fGB", float64(w)/float64(workload.GiB)))
	}
	t := metrics.NewTable("Figure 7: Stream bandwidth (GB/s)", header...)
	t.Caption = "0.5GB FastMem, 3.5GB SlowMem (L:5,B:9)"
	err := microSweep(ctx, o, wss,
		func(size int64) workload.Workload { return workload.NewStream(wcfg(o), size) },
		bandwidthGBs, t)
	if err != nil {
		return nil, err
	}
	return &Result{ID: "figure7", Table: t}, nil
}

// bandwidthGBs derives sustained memory bandwidth from moved bytes over
// memory time.
func bandwidthGBs(r *core.VMResult) float64 {
	bytes := float64(r.BytesOut[memsim.FastMem] + r.BytesOut[memsim.SlowMem])
	memNs := float64(r.MemTime[memsim.FastMem] + r.MemTime[memsim.SlowMem])
	if memNs == 0 {
		return 0
	}
	return bytes / memNs // bytes per ns == GB/s
}

// Figure8 reproduces the VMM-exclusive tracking/migration overhead sweep
// across hotness-scan intervals.
func Figure8(ctx context.Context, o Options) (*Result, error) {
	intervals := []int{1, 2, 3, 4, 5} // x100ms
	if o.Quick {
		intervals = []int{1, 5}
	}
	t := metrics.NewTable("Figure 8: VMM-exclusive hotness-tracking and migration cost (GraphChi)",
		"Interval (ms)", "Hotpage overhead (%)", "Migration overhead (%)", "Total overhead (%)", "Pages migrated (millions)")
	sw := newSweep(ctx, o)
	defer sw.close()
	cells := make([]*cell, len(intervals))
	for i, iv := range intervals {
		label := fmt.Sprintf("GraphChi/VMM-exclusive/interval=%dx100ms", iv)
		w, err := workload.ByName("GraphChi", wcfg(o))
		if err != nil {
			return nil, err
		}
		cfg := SingleVM(w, policy.VMMExclusive(), ratioPages(4), SlowVMPages, o.seed())
		cfg.ScanEveryEpochs = iv
		cells[i] = sw.submit(label, cfg)
	}
	for i, iv := range intervals {
		r, err := cells[i].result()
		if err != nil {
			return nil, err
		}
		total := float64(r.SimTime)
		scanPct := 100 * r.ScanCostNs / total
		migPct := 100 * r.MigrateCostNs / total
		millions := float64(r.VMMMigrations) * float64(workload.DefaultScale) / 1e6
		t.AddRow(iv*100, scanPct, migPct, scanPct+migPct, millions)
	}
	return &Result{ID: "figure8", Table: t}, nil
}

// figure9Modes are the guest-placement mechanisms compared in Figure 9.
func figure9Modes() []policy.Mode {
	return []policy.Mode{
		policy.HeapOD(), policy.HeapIOSlabOD(), policy.HeteroOSLRU(), policy.NUMAPreferred(),
	}
}

// gainSweep assembles the Figure 9/11 shape: per app, gains of each
// mode × capacity ratio relative to SlowMem-only, plus the FastMem-only
// ideal column.
func gainSweep(ctx context.Context, o Options, id, title string, modes []policy.Mode, dens []int) (*Result, error) {
	header := []string{"App", "Ratio"}
	for _, m := range modes {
		header = append(header, m.Name)
	}
	header = append(header, "FastMem-only")
	t := metrics.NewTable(title, header...)
	t.Caption = "Gains (%) relative to SlowMem-only"
	apps := evalApps(o)
	type appCells struct {
		base, ideal *cell
		byDen       [][]*cell // [den][mode]
	}
	sw := newSweep(ctx, o)
	defer sw.close()
	rows := make([]appCells, len(apps))
	for i, app := range apps {
		rows[i].base = sw.submitDefault(app, policy.SlowMemOnly(), 0)
		rows[i].ideal = sw.submitDefault(app, policy.FastMemOnly(), ratioPages(2))
		for _, d := range dens {
			var cs []*cell
			for _, m := range modes {
				cs = append(cs, sw.submitDefault(app, m, ratioPages(d)))
			}
			rows[i].byDen = append(rows[i].byDen, cs)
		}
	}
	for i, app := range apps {
		base, err := rows[i].base.result()
		if err != nil {
			return nil, err
		}
		ideal, err := rows[i].ideal.result()
		if err != nil {
			return nil, err
		}
		for j, d := range dens {
			row := []interface{}{app, fmt.Sprintf("1/%d", d)}
			for _, c := range rows[i].byDen[j] {
				r, err := c.result()
				if err != nil {
					return nil, err
				}
				row = append(row, metrics.GainPercent(base.RuntimeSeconds(), r.RuntimeSeconds()))
			}
			row = append(row, metrics.GainPercent(base.RuntimeSeconds(), ideal.RuntimeSeconds()))
			t.AddRow(row...)
		}
	}
	return &Result{ID: id, Table: t}, nil
}

// Figure9 reproduces the guest-OS placement study: gains relative to
// SlowMem-only across FastMem capacity ratios.
func Figure9(ctx context.Context, o Options) (*Result, error) {
	dens := []int{2, 4, 8}
	if o.Quick {
		dens = []int{4}
	}
	return gainSweep(ctx, o, "figure9", "Figure 9: Impact of OS heterogeneity awareness",
		figure9Modes(), dens)
}

// Figure10 reproduces the FastMem allocation miss-ratio comparison at
// the 1/8 capacity ratio.
func Figure10(ctx context.Context, o Options) (*Result, error) {
	header := []string{"App"}
	for _, m := range figure9Modes() {
		header = append(header, m.Name)
	}
	t := metrics.NewTable("Figure 10: FastMem allocation miss ratio (1/8 capacity ratio)", header...)
	apps := evalApps(o)
	sw := newSweep(ctx, o)
	defer sw.close()
	cells := make([][]*cell, len(apps))
	for i, app := range apps {
		for _, m := range figure9Modes() {
			cells[i] = append(cells[i], sw.submitDefault(app, m, ratioPages(8)))
		}
	}
	for i, app := range apps {
		row := []interface{}{app}
		for _, c := range cells[i] {
			r, err := c.result()
			if err != nil {
				return nil, err
			}
			row = append(row, r.MissRatio())
		}
		t.AddRow(row...)
	}
	return &Result{ID: "figure10", Table: t}, nil
}

// figure11Modes are the migration mechanisms compared in Figure 11.
func figure11Modes() []policy.Mode {
	return []policy.Mode{
		policy.HeteroOSLRU(), policy.VMMExclusive(), policy.HeteroOSCoordinated(),
	}
}

// Figure11 reproduces the coordinated-management study.
func Figure11(ctx context.Context, o Options) (*Result, error) {
	dens := []int{4, 8}
	if o.Quick {
		dens = []int{4}
	}
	return gainSweep(ctx, o, "figure11", "Figure 11: Impact of HeteroOS-coordinated",
		figure11Modes(), dens)
}

// Figure12 reproduces the migration-only gains table: each migrating
// mechanism against the placement-only Heap-IO-Slab-OD, with total pages
// migrated.
func Figure12(ctx context.Context, o Options) (*Result, error) {
	apps := []string{"GraphChi", "Redis", "LevelDB"}
	if o.Quick {
		apps = []string{"GraphChi"}
	}
	modes := []policy.Mode{policy.VMMExclusive(), policy.HeteroOSLRU(), policy.HeteroOSCoordinated()}
	t := metrics.NewTable("Figure 12: Gains exclusively from page migrations",
		"App", "VMM-exclusive", "HeteroOS-LRU", "HeteroOS-coordinated")
	t.Caption = "Gain (%) vs Heap-IO-Slab-OD; pages migrated in millions in brackets"
	type appCells struct {
		base  *cell
		modes []*cell
	}
	sw := newSweep(ctx, o)
	defer sw.close()
	rows := make([]appCells, len(apps))
	for i, app := range apps {
		rows[i].base = sw.submitDefault(app, policy.HeapIOSlabOD(), ratioPages(4))
		for _, m := range modes {
			rows[i].modes = append(rows[i].modes, sw.submitDefault(app, m, ratioPages(4)))
		}
	}
	for i, app := range apps {
		base, err := rows[i].base.result()
		if err != nil {
			return nil, err
		}
		row := []interface{}{app}
		for _, c := range rows[i].modes {
			r, err := c.result()
			if err != nil {
				return nil, err
			}
			moved := r.VMMMigrations + r.Demotions + r.Promotions
			millions := float64(moved) * float64(workload.DefaultScale) / 1e6
			row = append(row, fmt.Sprintf("%.1f (%.2fM)",
				metrics.GainPercent(base.RuntimeSeconds(), r.RuntimeSeconds()), millions))
		}
		t.AddRow(row...)
	}
	return &Result{ID: "figure12", Table: t}, nil
}

// Figure13 reproduces the multi-VM resource-sharing study: a GraphChi VM
// and a Metis VM contending for 4 GiB FastMem / 8 GiB SlowMem under
// max-min vs weighted-DRF sharing.
func Figure13(ctx context.Context, o Options) (*Result, error) {
	type vmShape struct {
		app                string
		fastSpan, slowSpan uint64
		bootFast, bootSlow uint64
		resFast, resSlow   uint64
	}
	// 4 GiB FastMem + 6 GiB SlowMem: the two VMs' footprints genuinely
	// exceed the SlowMem pool, so the share policy decides who swaps.
	machineFast := pages(4 * workload.GiB)
	machineSlow := pages(6 * workload.GiB)
	shapes := []vmShape{
		{
			app:      "GraphChi",
			fastSpan: pages(1 * workload.GiB), slowSpan: machineSlow,
			bootFast: pages(1 * workload.GiB), bootSlow: pages(3 * workload.GiB),
			resFast: pages(1 * workload.GiB), resSlow: pages(3 * workload.GiB),
		},
		{
			app:      "Metis",
			fastSpan: pages(3 * workload.GiB), slowSpan: machineSlow,
			bootFast: pages(3 * workload.GiB), bootSlow: pages(1 * workload.GiB),
			resFast: pages(3 * workload.GiB), resSlow: pages(1 * workload.GiB),
		},
	}

	buildVM := func(id int, sh vmShape, mode policy.Mode) (core.VMConfig, error) {
		w, err := workload.ByName(sh.app, workload.Config{Seed: o.seed() + uint64(id)})
		if err != nil {
			return core.VMConfig{}, err
		}
		return core.VMConfig{
			ID: vmm.VMID(id), Mode: mode, Workload: w,
			FastPages: sh.fastSpan, SlowPages: sh.slowSpan,
			BootFastPages: sh.bootFast, BootSlowPages: sh.bootSlow,
			ReservedFastPages: sh.resFast, ReservedSlowPages: sh.resSlow,
		}, nil
	}

	sw := newSweep(ctx, o)
	defer sw.close()

	submitPair := func(mode policy.Mode, share core.ShareKind) (*cell, error) {
		var vms []core.VMConfig
		for i, sh := range shapes {
			vc, err := buildVM(i+1, sh, mode)
			if err != nil {
				return nil, err
			}
			vms = append(vms, vc)
		}
		label := fmt.Sprintf("pair/%s/%s", mode.Name, share)
		return sw.submit(label, core.Config{
			FastFrames: machineFast, SlowFrames: machineSlow,
			Share: share, Seed: o.seed(), VMs: vms,
		}), nil
	}

	collectPair := func(c *cell) ([2]*core.VMResult, error) {
		var out [2]*core.VMResult
		sys, err := c.system()
		if err != nil {
			return out, err
		}
		for i := range shapes {
			r, _ := sys.VMResultByID(vmm.VMID(i + 1))
			out[i] = r
		}
		return out, nil
	}

	// Per-app SlowMem-only and single-VM coordinated baselines.
	baseCells := make([]*cell, len(shapes))
	singleCells := make([]*cell, len(shapes))
	for i, sh := range shapes {
		baseCells[i] = sw.submitDefault(sh.app, policy.SlowMemOnly(), 0)
		vc, err := buildVM(i+1, sh, policy.HeteroOSCoordinated())
		if err != nil {
			return nil, err
		}
		vc.ID = 1
		singleCells[i] = sw.submit(fmt.Sprintf("single/%s", sh.app), core.Config{
			FastFrames: machineFast, SlowFrames: machineSlow,
			Share: core.ShareStatic, Seed: o.seed(), VMs: []core.VMConfig{vc},
		})
	}
	vmmExclCell, err := submitPair(policy.VMMExclusive(), core.ShareMaxMin)
	if err != nil {
		return nil, err
	}
	coordMaxMinCell, err := submitPair(policy.HeteroOSCoordinated(), core.ShareMaxMin)
	if err != nil {
		return nil, err
	}
	coordDRFCell, err := submitPair(policy.HeteroOSCoordinated(), core.ShareDRF)
	if err != nil {
		return nil, err
	}

	baselines := map[string]float64{}
	single := map[string]float64{}
	for i, sh := range shapes {
		b, err := baseCells[i].result()
		if err != nil {
			return nil, err
		}
		baselines[sh.app] = b.RuntimeSeconds()
		sys, err := singleCells[i].system()
		if err != nil {
			return nil, err
		}
		r, _ := sys.VMResultByID(1)
		single[sh.app] = r.RuntimeSeconds()
	}
	vmmExcl, err := collectPair(vmmExclCell)
	if err != nil {
		return nil, err
	}
	coordMaxMin, err := collectPair(coordMaxMinCell)
	if err != nil {
		return nil, err
	}
	coordDRF, err := collectPair(coordDRFCell)
	if err != nil {
		return nil, err
	}

	t := metrics.NewTable("Figure 13: Impact of multi-VM resource sharing",
		"VM", "VMM-exclusive", "HeteroOS-coordinated (max-min)", "DRF-HeteroOS-coordinated", "Single-VM coordinated")
	t.Caption = "Gains (%) relative to SlowMem-only; two VMs share 4GB FastMem + 6GB SlowMem"
	for i, sh := range shapes {
		base := baselines[sh.app]
		t.AddRow(sh.app+" VM",
			metrics.GainPercent(base, vmmExcl[i].RuntimeSeconds()),
			metrics.GainPercent(base, coordMaxMin[i].RuntimeSeconds()),
			metrics.GainPercent(base, coordDRF[i].RuntimeSeconds()),
			metrics.GainPercent(base, single[sh.app]))
	}
	return &Result{ID: "figure13", Table: t}, nil
}
