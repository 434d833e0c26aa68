// Command heterobench regenerates the paper's evaluation artifacts: one
// experiment per table and figure, printed as text tables. Sweeps run
// concurrently on a bounded worker pool; Ctrl-C cancels the batch
// within one simulation epoch per in-flight job.
//
// Usage:
//
//	heterobench -exp figure9            # one experiment
//	heterobench -exp all                # everything, paper order
//	heterobench -exp figure1 -quick     # reduced sweep for smoke runs
//	heterobench -exp all -workers 4     # bound the worker pool
//	heterobench -exp figure9 -progress  # per-simulation progress on stderr
//	heterobench -list                   # enumerate experiment ids
//
// Profiling (see README "Profiling" for the pprof workflow):
//
//	heterobench -exp figure9 -cpuprofile cpu.out   # CPU profile of the run
//	heterobench -exp figure9 -memprofile mem.out   # heap profile at exit
//
// Observability:
//
//	heterobench -exp figure6 -metrics m.csv     # per-run metrics snapshots
//	heterobench -exp figure9 -profile-epochs    # aggregate epoch phase breakdown
//
// Every cell prices epochs with the analytic Table-3 machine model (see
// DESIGN.md §5f).
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"time"

	"heteroos/internal/exp"
	"heteroos/internal/metrics"
	"heteroos/internal/obs"
)

// obsCollector gathers per-run observability handles from the sweep
// pool (submission happens from the main goroutine, but the factory is
// shared across experiments, so guard anyway) and writes one CSV row
// per metric per run.
type obsCollector struct {
	mu   sync.Mutex
	runs []obsRun
	w    *csv.Writer
}

type obsRun struct {
	label  string
	seed   uint64
	handle *obs.Obs
}

// factory is the runner.Options.NewObs hook.
func (c *obsCollector) factory(label string, seed uint64) *obs.Obs {
	h := obs.New()
	h.SetRunTag(label)
	c.mu.Lock()
	c.runs = append(c.runs, obsRun{label: label, seed: seed, handle: h})
	c.mu.Unlock()
	return h
}

// flush writes the collected runs' snapshots under experiment id (when
// a CSV writer is attached) and clears the collection. Runs are
// written in submission order, so the file is deterministic for a
// fixed config. Metric names are scoped full names
// ("vm1/guestos.promotions"), so per-VM series stay distinguishable in
// the CSV.
func (c *obsCollector) flush(expID string) error {
	c.mu.Lock()
	runs := c.runs
	c.runs = nil
	c.mu.Unlock()
	if c.w == nil {
		return nil
	}
	for _, r := range runs {
		snap := r.handle.Metrics.Snapshot()
		for i := range snap.Values {
			v := &snap.Values[i]
			rec := []string{
				expID, r.label, strconv.FormatUint(r.seed, 10),
				v.FullName(), v.Kind.String(),
				strconv.FormatFloat(v.Value, 'g', -1, 64),
			}
			if v.Kind == obs.KindHistogram {
				rec = append(rec,
					strconv.FormatFloat(v.Sum, 'g', -1, 64),
					strconv.FormatFloat(v.Quantile(0.50), 'g', -1, 64),
					strconv.FormatFloat(v.Quantile(0.99), 'g', -1, 64),
					strconv.FormatFloat(v.Max, 'g', -1, 64))
			} else {
				rec = append(rec, "", "", "", "")
			}
			if err := c.w.Write(rec); err != nil {
				return err
			}
		}
	}
	c.w.Flush()
	return c.w.Error()
}

// phaseTable aggregates the epoch phase profile across every collected
// run of one experiment (a rollup over all cells' scoped histograms).
// Returns nil when no run recorded phase data.
func (c *obsCollector) phaseTable(expID string) *metrics.Table {
	c.mu.Lock()
	runs := c.runs
	c.mu.Unlock()
	var merged obs.Snapshot
	for _, r := range runs {
		merged = merged.Merge(r.handle.Metrics.Snapshot())
	}
	if !obs.HasPhaseData(merged) {
		return nil
	}
	return obs.PhaseTable(merged, "epoch phase breakdown: "+expID+" (all cells)")
}

func main() {
	var (
		expID      = flag.String("exp", "all", "experiment id (table1..table6, figure1..figure13) or 'all'")
		quick      = flag.Bool("quick", false, "run reduced sweeps")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		workers    = flag.Int("workers", 0, "concurrent simulations per sweep (0 = GOMAXPROCS)")
		progress   = flag.Bool("progress", false, "report per-simulation progress on stderr")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		format     = flag.String("format", "text", "output format: text, markdown, csv")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to `file`")
		memprofile = flag.String("memprofile", "", "write a heap profile to `file` at exit")
		metricsOut = flag.String("metrics", "", "write per-run metrics snapshots (CSV) to `file`")
		profileF   = flag.Bool("profile-epochs", false, "profile epoch phases in every sweep cell and print an aggregate phase breakdown")
	)
	flag.Parse()
	if err := metrics.CheckFormat(*format); err != nil {
		fmt.Fprintln(os.Stderr, "heterobench:", err)
		os.Exit(2)
	}

	if *list {
		for _, e := range exp.Registry() {
			fmt.Printf("%-10s %s\n", e.ID, e.Description)
		}
		return
	}

	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "heterobench:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "heterobench:", err)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := exp.Options{Seed: *seed, Quick: *quick, Workers: *workers}
	if *progress {
		opts.Progress = func(done, submitted int, label string) {
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s\n", done, submitted, label)
		}
	}
	var collector *obsCollector
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "heterobench: -metrics: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		collector = &obsCollector{w: csv.NewWriter(f)}
		if err := collector.w.Write([]string{
			"experiment", "run", "seed", "metric", "kind",
			"value", "sum", "p50", "p99", "max"}); err != nil {
			fmt.Fprintf(os.Stderr, "heterobench: -metrics: %v\n", err)
			os.Exit(1)
		}
		opts.NewObs = collector.factory
	}
	if *profileF {
		// Profiling needs per-cell observability handles even when no
		// metrics CSV was requested; a writer-less collector provides
		// them (flush then only clears).
		if collector == nil {
			collector = &obsCollector{}
			opts.NewObs = collector.factory
		}
		opts.ProfileEpochs = true
	}
	var todo []exp.Experiment
	if *expID == "all" {
		todo = exp.Registry()
	} else {
		e, ok := exp.ByID(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "heterobench: unknown experiment %q; try -list\n", *expID)
			os.Exit(2)
		}
		todo = []exp.Experiment{e}
	}

	for _, e := range todo {
		start := time.Now()
		res, err := e.Run(ctx, opts)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "heterobench: %s: interrupted\n", e.ID)
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "heterobench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		res.Table.RenderAs(os.Stdout, *format)
		if res.Notes != "" {
			fmt.Println(res.Notes)
		}
		if collector != nil {
			if *profileF {
				if pt := collector.phaseTable(e.ID); pt != nil {
					fmt.Println()
					pt.RenderAs(os.Stdout, *format)
				}
			}
			if err := collector.flush(e.ID); err != nil {
				fmt.Fprintf(os.Stderr, "heterobench: -metrics: %v\n", err)
				os.Exit(1)
			}
		}
		if *format == "text" {
			fmt.Printf("[%s completed in %.1fs]\n\n", e.ID, time.Since(start).Seconds())
		} else {
			fmt.Println()
			_ = start
		}
	}
}
