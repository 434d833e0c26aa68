package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"heteroos/internal/exp"
	"heteroos/internal/fleet"
	tables "heteroos/internal/metrics"
)

// The short variants of the benchmark's workloads: figure9 -quick and
// the 3-host churn fleet.
var (
	quickFigure = figureRun("figure9", true, 2)
	quickFleet  = fleetRun("fleet-churn.json", 0)
)

// checkClean fails the test if a repetition reported any failure.
func checkClean(t *testing.T, what string, r *rep) {
	t.Helper()
	if r.ops == 0 || r.failed != 0 || len(r.errs) != 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", what, r.failed, r.ops, r.errs)
	}
}

// checkNotPerturbed runs a workload untraced and traced and compares
// both digests with the digest of a bare run.
func checkNotPerturbed(t *testing.T, bare string, run func(context.Context, uint64, bool) *rep, seed uint64) {
	t.Helper()
	for _, traced := range []bool{false, true} {
		r := run(context.Background(), seed, traced)
		checkClean(t, "run", r)
		if got := r.digest(); got != bare {
			t.Errorf("traced=%v: digest %s, bare run %s", traced, got, bare)
		}
		if traced != (r.layer != nil) {
			t.Errorf("traced=%v: layer metrics present=%v", traced, r.layer != nil)
		}
	}
}

// TestFigureNotPerturbed pins that neither the metering decorator of
// the untraced run nor the traced run (observability handles, phase
// profiler, timed decorator) changes figure output.
func TestFigureNotPerturbed(t *testing.T) {
	e, _ := exp.ByID("figure9")
	res, err := e.Run(context.Background(), exp.Options{Seed: 1, Quick: true, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	bare := (&rep{tables: []*tables.Table{res.Table}, notes: res.Notes}).digest()
	checkNotPerturbed(t, bare, quickFigure, 1)
}

// TestFleetNotPerturbed is the same pin for a fleet: observability and
// the meters swapped onto every host's backend leave the output alone.
func TestFleetNotPerturbed(t *testing.T) {
	sc, err := fleet.LoadBundled("fleet-churn.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.Run(context.Background(), sc, fleet.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	bare := (&rep{tables: fleetTables(res)}).digest()
	checkNotPerturbed(t, bare, quickFleet, sc.Seed)
}

// TestHeldOutSeeds runs the short variants on seeds other than their
// defaults (figure seed 1, fleet-churn seed 42) through the checks, and
// checks that a different seed gives a different output.
func TestHeldOutSeeds(t *testing.T) {
	for _, c := range []struct {
		name      string
		run       func(context.Context, uint64, bool) *rep
		def, held uint64
	}{
		{"figure9-quick", quickFigure, 1, 7},
		{"fleet-churn", quickFleet, 42, 4242},
	} {
		a := c.run(context.Background(), c.def, false)
		b := c.run(context.Background(), c.held, false)
		checkClean(t, c.name+" default seed", a)
		checkClean(t, c.name+" held-out seed", b)
		if a.digest() == b.digest() {
			t.Errorf("%s: seeds %d and %d give the same output", c.name, c.def, c.held)
		}
	}
}

// TestTracedAttribution checks the traced run's layer metrics on the
// short figure: the phase shares are a partition of the epoch, the
// workload phase is at least 90% of it, and pricing is under 1% of the
// run.
func TestTracedAttribution(t *testing.T) {
	r := quickFigure(context.Background(), 1, true)
	checkClean(t, "traced", r)
	l := r.layer
	sum := 0.0
	for _, ph := range []string{"workload", "balance", "scan", "migrate", "charge"} {
		sum += l["phase."+ph+".share"]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("phase shares sum to %v, want 1", sum)
	}
	if l["phase.workload.share"] < 0.9 {
		t.Errorf("phase.workload.share = %v; figure9 should be workload-bound", l["phase.workload.share"])
	}
	// Against wall time rather than the CPU time the metric divides by:
	// the pool keeps more than one CPU busy, so this bound is stricter.
	if s := r.chargeDur.Seconds() / r.wall.Seconds(); s <= 0 || s >= 0.01 {
		t.Errorf("pricing takes %v of the run's wall time, want under 0.01", s)
	}
	if l["runner.cells"] == 0 || l["memsim.charges"] != float64(r.vmEpochs) {
		t.Errorf("cells %v, charges %v, priced epochs %d", l["runner.cells"], l["memsim.charges"], r.vmEpochs)
	}
}

// TestBenchmarkJSONNames keeps BENCHMARK.json and the metrics this
// program prints in step.
func TestBenchmarkJSONNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	if len(spec.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(names))
	}
	for i, w := range spec.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, names[i])
		}
	}

	e2e := map[string]string{}
	endToEnd([]sample{{rep: &rep{wall: 1}}}, func(name, unit string, _ float64) { e2e[name] = unit })
	layer := map[string]string{}
	layerMetrics(sample{rep: &rep{wall: 1}}, sample{rep: &rep{wall: 1}}, func(name, unit string, _ float64) { layer[name] = unit })
	for _, c := range []struct {
		kind    string
		spec    []metric
		printed map[string]string
	}{{"end_to_end", spec.EndToEnd, e2e}, {"per_layer", spec.PerLayer, layer}} {
		if len(c.spec) != len(c.printed) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program prints %d", c.kind, len(c.spec), len(c.printed))
		}
		for _, m := range c.spec {
			if unit, ok := c.printed[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s %s: BENCHMARK.json unit %q, printed %q (present %v)", c.kind, m.Name, m.Unit, unit, ok)
			}
		}
	}
}
