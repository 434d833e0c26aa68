// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload through the simulator's public entry points
// (exp.Experiment.Run for the figure sweeps; fleet.NewCluster,
// Cluster.StepRound and Cluster.Result for the fleet), checks the
// outputs, and prints one JSON result line last.
//
//	go run . --workload fig11-migration --seed 7 --seconds 60 --trace 0
//
// With --trace 0 the workload repeats, untraced, at least three times
// and then for about --seconds; end-to-end times are built from each
// operation's fastest run over the repetitions (see endToEnd). With
// --trace 1 it runs once untraced and once traced (observability
// handles, the epoch phase profiler and a timing decorator around
// memsim.Backend) and prints the per-layer metrics.
// The same seed always builds the same inputs; every repetition's
// output digest must equal the first one's, and the traced run's must
// equal the untraced run's.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"

	tables "heteroos/internal/metrics"
)

// workers is the fixed width of every worker pool the benchmark starts
// (sweep cells and fleet host steps). It is never derived from
// GOMAXPROCS, so the benchmark does the same work on any machine.
const workers = 2

// rep is one repetition of a workload.
type rep struct {
	tables []*tables.Table
	notes  string
	// ops counts the operations attempted (sweep cells or fleet rounds)
	// and failed the ones that returned an error or failed a check.
	ops, failed int
	errs        []string
	// wall covers the simulation itself, from script load or sweep
	// submission to the last result, excluding the output checks.
	wall   time.Duration
	setups []time.Duration
	// opWall times the repetition's operations in a fixed order (sweep
	// cells in submission order; fleet set-up, rounds and Result). slots
	// is how many operations run at once, and rest is the wall time
	// outside every operation.
	opWall []time.Duration
	slots  int
	rest   time.Duration
	// vmEpochs counts simulated VM-epochs (priced epochs).
	vmEpochs uint64
	// chargeDur is the host time spent inside Backend.Charge (traced
	// repetitions only).
	chargeDur time.Duration
	// layer holds the per-layer metrics of a traced repetition.
	layer map[string]float64
}

// fail records an error against ops of the repetition's operations; an
// operation counts as failed at most once.
func (r *rep) fail(ops int, format string, args ...any) {
	r.failed = min(r.failed+ops, r.ops)
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// digest hashes the rendered output tables.
func (r *rep) digest() string {
	h := sha256.New()
	for _, t := range r.tables {
		io.WriteString(h, t.Title+"\n"+t.Caption+"\n")
		t.RenderCSV(h)
	}
	io.WriteString(h, r.notes)
	return hex.EncodeToString(h.Sum(nil))
}

type workload struct {
	name string
	run  func(ctx context.Context, seed uint64, traced bool) *rep
}

// minReps is the fewest untraced repetitions a --trace 0 run takes, so
// every operation's fastest time is taken over at least three runs.
const minReps = 3

func workloads() []workload {
	return []workload{
		{name: "fig11-migration", run: figureRun("figure11", false, 10)},
		{name: "fleet-churn-1k", run: fleetRun("fleet-churn-1k.json", 1)},
	}
}

// sample is one measured repetition.
type sample struct {
	*rep
	digest                       string
	cpu                          time.Duration
	allocBytes, mallocs, gcCount uint64
	gcCPU                        float64 // seconds
	// rssMB is the process's peak resident memory when the repetition
	// ended.
	rssMB float64
}

var runtimeSamples = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

type counters struct {
	cpu   time.Duration
	rssMB float64
	mem   runtime.MemStats
	gcCPU float64
}

func readCounters() counters {
	var c counters
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		c.rssMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	runtime.ReadMemStats(&c.mem)
	metrics.Read(runtimeSamples)
	if runtimeSamples[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = runtimeSamples[0].Value.Float64()
	}
	return c
}

// measure runs one repetition between a forced collection (so one
// repetition's garbage is not billed to the next) and the counter reads.
// The freed heap is not handed back to the operating system, so later
// repetitions fault in less of it.
func measure(ctx context.Context, w workload, seed uint64, traced bool) sample {
	runtime.GC()
	before := readCounters()
	r := w.run(ctx, seed, traced)
	after := readCounters()
	return sample{
		rep:        r,
		digest:     r.digest(),
		cpu:        after.cpu - before.cpu,
		allocBytes: after.mem.TotalAlloc - before.mem.TotalAlloc,
		mallocs:    after.mem.Mallocs - before.mem.Mallocs,
		gcCount:    uint64(after.mem.NumGC - before.mem.NumGC),
		gcCPU:      after.gcCPU - before.gcCPU,
		rssMB:      after.rssMB,
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 30, "measuring budget in seconds for --trace 0")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	)
	flag.Parse()
	var w workload
	for _, c := range workloads() {
		if c.name == *name {
			w = c
		}
	}
	if w.run == nil || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or --trace %d\n", *name, *trace)
		os.Exit(2)
	}
	ctx := context.Background()

	var samples []sample
	start := time.Now()
	budget := time.Duration(*seconds * float64(time.Second))
	for {
		t0 := time.Now()
		samples = append(samples, measure(ctx, w, *seed, false))
		// Past minReps, start another repetition only if it should end
		// inside the budget; the trace run measures one untraced
		// repetition.
		if *trace == 1 || len(samples) >= minReps && time.Since(start)+time.Since(t0) > budget {
			break
		}
	}
	var traced *sample
	if *trace == 1 {
		s := measure(ctx, w, *seed, true)
		traced = &s
	}

	res := result{Metrics: map[string]metricValue{}}
	all := samples
	if traced != nil {
		all = append(all[:len(all):len(all)], *traced)
	}
	for i, s := range all {
		// rebuilt is the wall time put back together from this
		// repetition's own operations; it should be close to wall.
		fmt.Printf("rep %d: wall %.3fs rebuilt %.3fs cpu %.3fs alloc %.1fMB vm-epochs %d traced %v\n",
			i, s.wall.Seconds(), bestWall([]sample{s}).Seconds(), s.cpu.Seconds(),
			float64(s.allocBytes)/(1<<20), s.vmEpochs, i >= len(samples))
		res.Attempted += s.ops
		res.Failed += s.failed
		for _, e := range s.errs {
			fmt.Printf("error: %s rep %d: %s\n", w.name, i, e)
		}
		if s.digest != all[0].digest {
			fmt.Printf("error: %s rep %d: output digest %s differs from the first repetition's %s\n",
				w.name, i, s.digest, all[0].digest)
			res.Failed += s.ops - s.failed
		}
	}
	res.Correct = res.Failed == 0
	fmt.Printf("digest %s seed %d: sha256 %s (%d repetitions", w.name, *seed, all[0].digest, len(samples))
	if traced != nil {
		fmt.Printf(" + 1 traced")
	}
	fmt.Println(")")

	put := func(name, unit string, v float64) { res.Metrics[name] = metricValue{v, unit} }
	if traced == nil {
		endToEnd(samples, put)
	} else {
		layerMetrics(samples[0], *traced, put)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// endToEnd reports the user-visible metrics. Host speed on a shared
// machine drifts by tens of percent within seconds, and drift only ever
// adds time, so wall time is estimated operation by operation: each
// operation's fastest run over the repetitions, put back together the
// way a repetition runs them (see bestWall). Set-up and allocation are
// medians.
func endToEnd(samples []sample, put func(name, unit string, v float64)) {
	var alloc, setup []float64
	var epochs uint64
	for _, s := range samples {
		alloc = append(alloc, float64(s.allocBytes)/(1<<20))
		for _, d := range s.setups {
			setup = append(setup, d.Seconds())
		}
		epochs = max(epochs, s.vmEpochs)
	}
	wall := bestWall(samples).Seconds()
	put("wall_s", "s", wall)
	put("setup_s", "s", median(setup))
	if wall > 0 {
		put("sim_epochs_per_s", "1/s", float64(epochs)/wall)
	} else {
		put("sim_epochs_per_s", "1/s", 0)
	}
	// Peak memory as of the first repetition: later ones can only
	// raise the high-water mark, and how many fit depends on host speed.
	put("max_rss_mb", "MB", samples[0].rssMB)
	put("alloc_mb", "MB", median(alloc))
}

// bestWall is the wall time of a repetition in which every operation
// runs as fast as its fastest run: the operations' fastest times,
// list-scheduled in order onto the repetition's slots, plus the fastest
// time spent outside them. Repetitions that failed early and timed
// fewer operations are left out.
func bestWall(samples []sample) time.Duration {
	rest := samples[0].rest
	best := slices.Clone(samples[0].opWall)
	for _, s := range samples[1:] {
		rest = min(rest, s.rest)
		if len(s.opWall) != len(best) {
			continue
		}
		for i, d := range s.opWall {
			best[i] = min(best[i], d)
		}
	}
	free := make([]time.Duration, max(samples[0].slots, 1))
	for _, d := range best {
		i := 0
		for j := range free {
			if free[j] < free[i] {
				i = j
			}
		}
		free[i] += d
	}
	return rest + slices.Max(free)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
