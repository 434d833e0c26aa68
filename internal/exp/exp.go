// Package exp reproduces every table and figure of the paper's
// evaluation: each experiment builds the corresponding system
// configurations through internal/core, runs them, and renders the same
// rows/series the paper reports as a text table.
//
// Absolute numbers come from the simulator, not the authors' testbed;
// the reproduction target is the shape — orderings, approximate factors,
// crossover locations — recorded against the paper in EXPERIMENTS.md.
//
// Every sweep-style experiment owns a sweep: the figure function
// submits all of its cells up front, each cell runs through core.Run on
// an internal/runner worker pool, and the table is assembled from the
// cells in submission order — so output is byte-identical to a serial
// loop at any worker count, and a cancelled context (or a failed cell)
// stops the sweep within one epoch per in-flight simulation.
package exp

import (
	"context"
	"fmt"

	"heteroos/internal/core"
	"heteroos/internal/memsim"
	"heteroos/internal/metrics"
	"heteroos/internal/obs"
	"heteroos/internal/policy"
	"heteroos/internal/runner"
	"heteroos/internal/workload"
)

// Options tunes an experiment run.
type Options struct {
	// Seed drives all randomness (default 1).
	Seed uint64
	// Quick shrinks sweeps (fewer apps / points) for fast test runs.
	Quick bool
	// Workers bounds concurrent simulations per experiment
	// (<=0: GOMAXPROCS).
	Workers int
	// Progress, when set, is invoked after each simulation of a sweep
	// completes with the counts of finished and submitted cells and the
	// finished cell's label.
	Progress func(done, submitted int, label string)
	// NewObs, when set, builds each sweep cell's observability handle
	// from its label and seed. It is called once per cell, on the
	// submitting goroutine in submission order, and the sweep tags the
	// handle with the label.
	NewObs func(label string, seed uint64) *obs.Obs
	// NewBackend, when set, supplies each sweep cell's machine-model
	// builder, called like NewObs (after it); a benchmark harness wraps
	// the analytic engine in a per-cell timing decorator. nil keeps the
	// analytic default.
	NewBackend func(label string, seed uint64) memsim.Builder
	// ProfileEpochs runs the epoch phase profiler in cells that have an
	// observability handle (NewObs set).
	ProfileEpochs bool
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// Result is one reproduced artifact.
type Result struct {
	ID    string
	Table *metrics.Table
	Notes string
}

// Experiment couples an identifier with its runner. Run executes under
// ctx: cancellation aborts the underlying sweep promptly.
type Experiment struct {
	ID          string
	Description string
	Run         func(ctx context.Context, o Options) (*Result, error)
}

// Registry lists every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", "Heterogeneous memory characteristics", Table1},
		{"table2", "Datacenter applications", Table2},
		{"table3", "Throttle factors vs latency/bandwidth", Table3},
		{"table4", "Memory intensity of applications (MPKI)", Table4},
		{"table5", "HeteroOS incremental mechanisms", Table5},
		{"table6", "Per-page migration cost vs batch size", Table6},
		{"figure1", "Bandwidth and latency sensitivity (16MB LLC)", Figure1},
		{"figure2", "Intel NVM emulator sensitivity (48MB LLC)", Figure2},
		{"figure3", "FastMem capacity impact", Figure3},
		{"figure4", "Application memory page distribution", Figure4},
		{"figure6", "Memory latency microbenchmark", Figure6},
		{"figure7", "Stream bandwidth microbenchmark", Figure7},
		{"figure8", "VMM-exclusive hotness-tracking and migration cost", Figure8},
		{"figure9", "Impact of OS heterogeneity awareness", Figure9},
		{"figure10", "FastMem allocation miss ratio", Figure10},
		{"figure11", "Impact of HeteroOS-coordinated", Figure11},
		{"figure12", "Gains exclusively from page migrations", Figure12},
		{"figure13", "Impact of multi-VM resource sharing", Figure13},
		{"ext-nvm", "Extension: write-aware migration on NVM-class SlowMem", ExtNVM},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- shared run plumbing ---

// wcfg is the workload construction config shared by all experiments.
func wcfg(o Options) workload.Config {
	return workload.Config{Seed: o.seed()}
}

// pages converts real bytes to scaled pages.
func pages(bytes int64) uint64 {
	return workload.Config{}.Pages(bytes)
}

// SlowVMPages is the standard guest's SlowMem: each guest has 8 GiB
// SlowMem (Section 5.1) and a FastMem capacity the experiment varies.
var SlowVMPages = pages(8 * workload.GiB)

// SingleVM is the standard single-VM cell: one guest (VM 1) running w
// under mode with fastPages FastMem and slowPages SlowMem, on a machine
// that holds whatever the VM may need (FastMem-only needs fast+slow
// worth of FastMem frames) plus 8192 frames of headroom per tier. The
// tiers and LLC are core's defaults (the paper's L:5,B:9 SlowMem and
// reference LLC).
func SingleVM(w workload.Workload, mode policy.Mode, fastPages, slowPages, seed uint64) core.Config {
	return core.Config{
		FastFrames: fastPages + slowPages + 8192,
		SlowFrames: slowPages + 8192,
		Seed:       seed,
		VMs: []core.VMConfig{{
			ID: 1, Mode: mode, Workload: w,
			FastPages: fastPages, SlowPages: slowPages,
		}},
	}
}

// sweep owns one experiment's cells and the worker pool that runs
// them. Figures submit every cell first (submit/submitOne/
// submitDefault), then collect results in table order; the pool
// overlaps the simulations in between. Each figure defers close, which
// cancels the sweep's context and waits for every cell, so a figure
// that returns early (on a cell's error) leaves nothing simulating.
type sweep struct {
	o      Options
	pool   *runner.Pool
	cancel context.CancelFunc
	cells  []*cell
}

func newSweep(ctx context.Context, o Options) *sweep {
	ctx, cancel := context.WithCancel(ctx)
	return &sweep{o: o, cancel: cancel,
		pool: runner.NewPool(ctx, runner.Options{Workers: o.Workers, Progress: o.Progress})}
}

// close cancels every cell still queued or running and waits until all
// of them have stopped.
func (s *sweep) close() {
	s.cancel()
	for _, c := range s.cells {
		c.fut.Wait()
	}
}

// cell is one simulation of a sweep. sys is written on a pool goroutine
// and read only after fut.Wait.
type cell struct {
	label string
	err   error // submission-time failure (e.g. unknown app)
	fut   *runner.Future
	sys   *core.System
}

// system waits for the cell's completed system (multi-VM consumers).
func (c *cell) system() (*core.System, error) {
	err := c.err
	if err == nil {
		err = c.fut.Wait()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.label, err)
	}
	return c.sys, nil
}

// result waits for the cell's single-VM result.
func (c *cell) result() (*core.VMResult, error) {
	sys, err := c.system()
	if err != nil {
		return nil, err
	}
	return &sys.VMs[0].Res, nil
}

// submit queues one prebuilt configuration. The Options hooks run here,
// on the submitting goroutine and so in submission order: NewObs gives
// the cell a handle tagged with its label (and, with ProfileEpochs, the
// phase profiler), and NewBackend its machine model.
func (s *sweep) submit(label string, cfg core.Config) *cell {
	if s.o.NewObs != nil {
		cfg.Obs = s.o.NewObs(label, cfg.Seed)
		cfg.Obs.SetRunTag(label)
		cfg.ProfileEpochs = s.o.ProfileEpochs && cfg.Obs != nil
	}
	if s.o.NewBackend != nil {
		cfg.Backend = s.o.NewBackend(label, cfg.Seed)
	}
	c := &cell{label: label}
	c.fut = s.pool.Go(label, func(ctx context.Context) (err error) {
		c.sys, err = core.Run(ctx, cfg)
		return err
	})
	s.cells = append(s.cells, c)
	return c
}

// submitOne queues one app under one mode at the given FastMem size and
// tier/LLC configuration.
func (s *sweep) submitOne(app string, mode policy.Mode, fastPages uint64,
	slowSpec memsim.TierSpec, llc memsim.LLC) *cell {
	label := fmt.Sprintf("%s/%s", app, mode.Name)
	w, err := workload.ByName(app, wcfg(s.o))
	if err != nil {
		return &cell{err: err, label: label}
	}
	cfg := SingleVM(w, mode, fastPages, SlowVMPages, s.o.seed())
	cfg.SlowSpec, cfg.LLC = slowSpec, llc
	return s.submit(label, cfg)
}

// submitDefault uses the paper's main SlowMem (L:5,B:9) and reference
// LLC.
func (s *sweep) submitDefault(app string, mode policy.Mode, fastPages uint64) *cell {
	return s.submitOne(app, mode, fastPages, memsim.SlowTierSpec(), memsim.DefaultLLC())
}

// evalApps returns the application list the placement figures use
// (NGinx is excluded as in the paper: <10% heterogeneity impact).
func evalApps(o Options) []string {
	if o.Quick {
		return []string{"GraphChi", "LevelDB"}
	}
	return []string{"GraphChi", "X-Stream", "Metis", "LevelDB", "Redis"}
}

// ratioPages converts a FastMem:SlowMem capacity ratio (denominator den,
// i.e. 1/den) into FastMem pages against the 8 GiB SlowMem.
func ratioPages(den int) uint64 {
	return SlowVMPages / uint64(den)
}
