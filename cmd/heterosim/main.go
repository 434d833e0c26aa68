// Command heterosim runs a single VM simulation: one application under
// one management mode at a chosen FastMem:SlowMem shape, and prints a
// detailed result breakdown.
//
// Usage:
//
//	heterosim -app GraphChi -mode HeteroOS-coordinated -ratio 4
//	heterosim -app LevelDB -mode Heap-IO-Slab-OD -ratio 8 -seed 7
//	heterosim -modes                    # list mode names
//
// Fleet mode (see DESIGN.md §5j) replaces the single fixed VM with a
// scripted datacenter: N hosts advance in lock-step rounds through a
// timed script of VM arrivals and departures, demand surges, injected
// faults (throttle shifts, balloon refusals, migration stalls), and host
// failures with mass evacuation by live migration. A single-machine
// scenario is a one-host fleet; the bundled scripts resolve by name from
// any directory. Results are byte-identical for any -workers value:
//
//	heterosim -fleet churn.json
//	heterosim -fleet degrade.json -events=out.jsonl
//	heterosim -fleet fleet-churn-1k.json -workers 8
//	heterosim -fleets                   # list bundled scripts
//
// Checkpoint/restore (see DESIGN.md §5j): periodic checkpoints write
// the whole cluster's state; -restore resumes one and produces output
// byte-identical to the uninterrupted run:
//
//	heterosim -fleet churn.json -checkpoint-every 16 -checkpoint-path churn.hosnap
//	heterosim -restore churn.hosnap
//
// Exit codes: 0 success, 2 usage or unloadable input, 3 runtime
// failure, 130 interrupted.
//
// Observability:
//
//	heterosim -events=out.jsonl         # structured event stream (JSONL; analyze with heterotrace)
//	heterosim -chrome-trace=out.trace   # Perfetto / chrome://tracing export
//	heterosim -metrics=out.csv          # end-of-run metrics snapshot
//	heterosim -trace -format=csv        # per-epoch series as CSV
//	heterosim -profile-epochs           # per-phase epoch cost breakdown (sim + wall)
//	heterosim -listen :9090             # live /metrics (OpenMetrics) + /snapshot.json
//	heterosim -cpuprofile cpu.out       # CPU profile of the run (go tool pprof)
//	heterosim -memprofile mem.out       # heap profile at exit
//
// Every run prices epochs with the analytic Table-3 machine model (see
// DESIGN.md §5f).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"heteroos/internal/core"
	"heteroos/internal/exp"
	"heteroos/internal/fleet"
	"heteroos/internal/memsim"
	"heteroos/internal/obs"
	"heteroos/internal/policy"
	"heteroos/internal/workload"

	"heteroos/internal/metrics"
)

func main() {
	var (
		app       = flag.String("app", "GraphChi", "application (Table 2 name, or memlat/stream)")
		modeName  = flag.String("mode", "HeteroOS-coordinated", "management mode (Table 5 / baseline name)")
		ratio     = flag.Int("ratio", 4, "SlowMem:FastMem capacity ratio denominator (fast = 8GiB/ratio)")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		listModes = flag.Bool("modes", false, "list mode names and exit")
		fleetF    = flag.String("fleet", "", "run a JSON fleet script (bundled names resolve from any directory)")
		listFlts  = flag.Bool("fleets", false, "list bundled fleet script names and exit")
		workersF  = flag.Int("workers", 0, "fleet host-stepping goroutines (0 = GOMAXPROCS); any value yields the identical result")
		trace     = flag.Bool("trace", false, "print a per-epoch time series")
		format    = flag.String("format", "text", "trace/metrics table format: text, csv, or markdown")
		events    = flag.String("events", "", "write structured events as JSON lines to this file")
		chrome    = flag.String("chrome-trace", "", "write a Chrome trace_event export (Perfetto-loadable) to this file")
		metricsF  = flag.String("metrics", "", "write an end-of-run metrics snapshot (CSV) to this file")
		ckEvery   = flag.Int("checkpoint-every", 0, "write a fleet checkpoint after every N rounds (needs -fleet or -restore)")
		ckPath    = flag.String("checkpoint-path", "", "checkpoint destination file for -checkpoint-every")
		restoreF  = flag.String("restore", "", "resume a fleet checkpoint file and run it to completion")
		profileF  = flag.Bool("profile-epochs", false, "record per-phase epoch costs (sim + wall) and print a phase breakdown table")
		listenF   = flag.String("listen", "", "serve live /metrics (OpenMetrics) and /snapshot.json on this address during the run")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
		memprof   = flag.String("memprofile", "", "write a heap profile to `file` at exit")
	)
	flag.Parse()

	if *listModes {
		for _, m := range policy.All() {
			fmt.Printf("%-22s %s\n", m.Name, m.Description)
		}
		return
	}
	if *listFlts {
		for _, name := range fleet.Bundled() {
			fmt.Println(name)
		}
		return
	}
	if err := metrics.CheckFormat(*format); err != nil {
		fmt.Fprintln(os.Stderr, "heterosim:", err)
		os.Exit(2)
	}

	if *restoreF != "" && *fleetF != "" {
		fmt.Fprintln(os.Stderr, "heterosim: -restore and -fleet are mutually exclusive")
		os.Exit(2)
	}
	if *ckEvery != 0 && *fleetF == "" && *restoreF == "" {
		fmt.Fprintln(os.Stderr, "heterosim: -checkpoint-every needs -fleet or -restore")
		os.Exit(2)
	}
	stopProfiles, err := obs.StartProfiles(*cpuprof, *memprof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "heterosim:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "heterosim:", err)
		}
	}()

	of := obsFlags{events: *events, chrome: *chrome, metricsF: *metricsF,
		listen: *listenF, profile: *profileF, format: *format}

	if *fleetF != "" || *restoreF != "" {
		// -seed overrides the script's own seed only when passed
		// explicitly.
		var seedOverride *uint64
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				seedOverride = seed
			}
		})
		opts := fleet.Options{Workers: *workersF, ProfileEpochs: *profileF,
			CheckpointEvery: *ckEvery, CheckpointPath: *ckPath}
		runFleet(*fleetF, *restoreF, seedOverride, opts, of)
		return
	}

	mode, err := policy.ByName(*modeName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "heterosim: %v; try -modes\n", err)
		os.Exit(2)
	}
	w, err := workload.ByName(*app, workload.Config{Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "heterosim:", err)
		os.Exit(2)
	}
	if *ratio < 1 {
		fmt.Fprintln(os.Stderr, "heterosim: ratio must be >= 1")
		os.Exit(2)
	}

	cfg := exp.SingleVM(w, mode, exp.SlowVMPages/uint64(*ratio), exp.SlowVMPages, *seed)
	cfg.Trace = *trace

	runTag := fmt.Sprintf("%s/%s ratio=%d seed=%d", *app, *modeName, *ratio, *seed)
	handle, closeObs := newObsHandle(runTag, of)
	cfg.Obs = handle
	cfg.ProfileEpochs = *profileF
	closeServer := serveMetrics(handle, *listenF)

	// Ctrl-C cancels the run at the next simulation epoch.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	sys, err := core.Run(ctx, cfg)
	if err != nil {
		closeObs()
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "heterosim: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "heterosim:", err)
		os.Exit(3)
	}

	res := &sys.VMs[0].Res
	prof := w.Profile()
	fmt.Printf("%s under %s (FastMem 1/%d of 8GiB SlowMem, %s)\n",
		prof.Name, mode.Name, *ratio, sys.VMM.SharePolicyName())
	fmt.Printf("  runtime          %10.2f s\n", res.RuntimeSeconds())
	if prof.OpsPerEpoch > 0 {
		fmt.Printf("  throughput       %10.0f ops/s (%s)\n",
			res.Throughput(prof.OpsPerEpoch), prof.Metric)
	}
	fmt.Printf("  cpu time         %10.2f s\n", res.CPUTime.Seconds())
	fmt.Printf("  FastMem stall    %10.2f s  (%d misses)\n",
		res.MemTime[memsim.FastMem].Seconds(), res.Misses[memsim.FastMem])
	fmt.Printf("  SlowMem stall    %10.2f s  (%d misses)\n",
		res.MemTime[memsim.SlowMem].Seconds(), res.Misses[memsim.SlowMem])
	fmt.Printf("  OS/software time %10.2f s\n", res.OSTime.Seconds())
	fmt.Printf("  faults=%d swapIn=%d swapOut=%d diskRead=%d diskWrite=%d\n",
		res.Faults, res.SwapIns, res.SwapOuts, res.DiskReadPages, res.DiskWritePages)
	fmt.Printf("  fastAllocMissRatio=%.3f demotions=%d promotions=%d vmmMigrations=%d\n",
		res.MissRatio(), res.Demotions, res.Promotions, res.VMMMigrations)
	fmt.Printf("  scanPasses=%d scanCost=%.2fs migrateCost=%.2fs\n",
		res.ScanPasses, res.ScanCostNs/1e9, res.MigrateCostNs/1e9)

	if *trace {
		fmt.Println()
		t := core.TraceTable(fmt.Sprintf("%s / %s per-epoch trace", prof.Name, mode.Name),
			sys.VMs[0].TraceLog)
		t.RenderAs(os.Stdout, *format)
	}

	if *profileF {
		fmt.Println()
		obs.PhaseTable(handle.Metrics.Snapshot(),
			"epoch phase breakdown: "+runTag).RenderAs(os.Stdout, *format)
	}
	if *metricsF != "" {
		writeMetrics(handle, *metricsF)
	}
	closeServer()
	closeObs()
}

// runFleet executes a fleet script, or resumes a fleet checkpoint when
// restore is set: N hosts in lock-step rounds with live migration and
// placement (see internal/fleet). Per-VM rows print only for small
// fleets; at datacenter scale the per-app aggregate, migration log, and
// timeline carry the story. A restored run prints exactly what the
// uninterrupted run would have.
func runFleet(path, restore string, seedOverride *uint64, opts fleet.Options, of obsFlags) {
	var sc *fleet.Script
	runTag := "restore/" + restore
	if restore == "" {
		var err error
		if sc, err = fleet.LoadFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "heterosim:", err)
			os.Exit(2)
		}
		if seedOverride != nil {
			sc.Seed = *seedOverride
		}
		runTag = fmt.Sprintf("fleet/%s seed=%d", sc.Name, sc.Seed)
	}
	handle, closeObs := newObsHandle(runTag, of)
	opts.Obs = handle
	var c *fleet.Cluster
	var err error
	if restore != "" {
		c, err = fleet.RestoreFile(restore, opts)
	} else {
		c, err = fleet.NewCluster(sc, opts)
	}
	if err != nil {
		// An unreadable checkpoint is bad input, like an unloadable
		// script; only the run itself exits 3.
		closeObs()
		fmt.Fprintln(os.Stderr, "heterosim:", err)
		os.Exit(2)
	}
	closeServer := serveMetrics(handle, of.listen)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	r, err := c.Finish(ctx)
	if err != nil {
		closeServer()
		closeObs()
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "heterosim: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "heterosim:", err)
		os.Exit(3)
	}

	completed, lost, heat := 0, 0, 0
	for i := range r.VMs {
		if r.VMs[i].Completed {
			completed++
		}
		if r.VMs[i].Lost {
			lost++
		}
	}
	evacuations := 0
	for i := range r.Migrations {
		if r.Migrations[i].Evacuation {
			evacuations++
		}
		if r.Migrations[i].HeatPreserved {
			heat++
		}
	}
	fmt.Printf("fleet %s: %d hosts, %d VMs over %d rounds, seed %d, placement %s\n",
		r.Name, r.Hosts, len(r.VMs), r.Rounds, r.Seed, r.Placement)
	fmt.Printf("  completed %d  lost %d  migrations %d (%d evacuations, %d heat-preserved)\n",
		completed, lost, len(r.Migrations), evacuations, heat)
	fmt.Println()
	r.AppTable().RenderAs(os.Stdout, of.format)
	if len(r.VMs) <= 64 {
		fmt.Println()
		r.Table().RenderAs(os.Stdout, of.format)
	}
	if n := len(r.Migrations); n > 0 && n <= 200 {
		fmt.Println()
		r.MigrationTable().RenderAs(os.Stdout, of.format)
	}
	fmt.Println()
	r.TimelineTable().RenderAs(os.Stdout, of.format)

	if of.profile {
		fmt.Println()
		obs.PhaseTable(handle.Metrics.Snapshot(),
			"epoch phase breakdown: "+runTag).RenderAs(os.Stdout, of.format)
	}
	if of.metricsF != "" {
		writeMetrics(handle, of.metricsF)
	}
	closeServer()
	closeObs()
}

// obsFlags bundles the observability flags every run path shares.
type obsFlags struct {
	events, chrome, metricsF string
	listen                   string
	profile                  bool
	format                   string
}

// on reports whether any flag asks for an observability handle.
func (of obsFlags) on() bool {
	return of.events != "" || of.chrome != "" || of.metricsF != "" ||
		of.listen != "" || of.profile
}

// newObsHandle builds an observability handle when any output was
// requested (nil otherwise — the default path stays byte-identical to
// an uninstrumented build) and returns it with its cleanup function.
func newObsHandle(runTag string, of obsFlags) (*obs.Obs, func()) {
	if !of.on() {
		return nil, func() {}
	}
	handle := obs.New()
	handle.SetRunTag(runTag)
	var outFiles []*os.File
	openSink := func(path string, mk func(wr io.Writer, run string) obs.Sink) {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "heterosim:", err)
			os.Exit(2)
		}
		outFiles = append(outFiles, f)
		handle.AddSink(mk(f, runTag))
	}
	if of.events != "" {
		openSink(of.events, func(wr io.Writer, run string) obs.Sink { return obs.NewJSONLSink(wr, run) })
	}
	if of.chrome != "" {
		openSink(of.chrome, func(wr io.Writer, run string) obs.Sink { return obs.NewChromeTraceSink(wr, run) })
	}
	return handle, func() {
		if err := handle.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "heterosim: event sink:", err)
		}
		for _, f := range outFiles {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "heterosim:", err)
			}
		}
	}
}

// serveMetrics starts the live metrics endpoint when addr is set and
// wires per-epoch snapshot publication into the handle's epoch hook.
// The returned cleanup stops the server.
func serveMetrics(handle *obs.Obs, addr string) func() {
	if addr == "" {
		return func() {}
	}
	srv, err := obs.NewMetricsServer(addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "heterosim: -listen:", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "heterosim: serving http://%s/metrics and /snapshot.json\n", srv.Addr())
	handle.SetEpochHook(func(int) {
		srv.Publish(handle.Metrics.Snapshot(), handle.RunTag())
	})
	// Publish once up front so the endpoints are never empty.
	srv.Publish(handle.Metrics.Snapshot(), handle.RunTag())
	return func() {
		if err := srv.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "heterosim: -listen:", err)
		}
	}
}

// writeMetrics dumps the end-of-run metrics snapshot as CSV.
func writeMetrics(handle *obs.Obs, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "heterosim:", err)
		os.Exit(2)
	}
	snap := handle.Metrics.Snapshot()
	snap.Table("metrics: " + handle.RunTag()).RenderCSV(f)
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "heterosim:", err)
	}
}
