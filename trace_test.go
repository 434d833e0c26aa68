package heteroos

import (
	"bytes"
	"context"
	"testing"

	"heteroos/internal/fleet"
	"heteroos/internal/obs"
)

// traceRun runs a bundled fleet script with a JSONL sink attached and
// returns its result and the parsed trace.
func traceRun(t *testing.T, name string) (*fleet.Result, *obs.Trace) {
	t.Helper()
	sc, err := fleet.LoadBundled(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	h := obs.New()
	h.SetRunTag(sc.Name)
	h.AddSink(obs.NewJSONLSink(&buf, sc.Name))
	r, err := fleet.Run(context.Background(), sc, fleet.Options{Workers: 2, Obs: h})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := obs.ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Run != sc.Name {
		t.Errorf("trace run tag = %q, want %q", tr.Run, sc.Name)
	}
	if len(tr.Events) == 0 {
		t.Fatalf("%s trace is empty", name)
	}
	return r, tr
}

// reconcile checks every VM's trace page totals against its result.
func reconcile(t *testing.T, r *fleet.Result, tr *obs.Trace) {
	t.Helper()
	byVM := tr.MigrationsByVM()
	var sawMigration bool
	for _, vm := range r.VMs {
		got := byVM[int32(vm.ID)]
		if got.Promoted != vm.Res.Promotions {
			t.Errorf("vm %d: trace promotions = %d, result = %d",
				vm.ID, got.Promoted, vm.Res.Promotions)
		}
		if got.Demoted != vm.Res.Demotions {
			t.Errorf("vm %d: trace demotions = %d, result = %d",
				vm.ID, got.Demoted, vm.Res.Demotions)
		}
		if vmmPages := got.VMMPromoted + got.VMMDemoted; vmmPages != vm.Res.VMMMigrations {
			t.Errorf("vm %d: trace VMM migrations = %d, result = %d",
				vm.ID, vmmPages, vm.Res.VMMMigrations)
		}
		if got != (obs.MigrationTotals{}) {
			sawMigration = true
		}
	}
	if !sawMigration {
		t.Fatal("no VM migrated — the reconcile check is vacuous")
	}
}

// TestHeterotraceReconcilesWithScenario is the analyzer's golden gate:
// running the bundled churn script (a one-host fleet) with a JSONL sink
// attached and feeding the stream through the offline analyzer must
// reproduce every VM's promotion/demotion page totals exactly as the
// simulation itself reported them — the trace is a complete, lossless
// account of page movement, and heterotrace's decoding agrees with the
// sinks' encoding byte for byte.
func TestHeterotraceReconcilesWithScenario(t *testing.T) {
	r, tr := traceRun(t, "churn.json")
	reconcile(t, r, tr)

	// The churn script scripts a surge fault window; the analyzer must
	// surface it as a closed window.
	ws := tr.FaultWindows()
	if len(ws) == 0 {
		t.Fatal("no fault windows found in churn trace")
	}
	for _, w := range ws {
		if w.Clear < 0 {
			t.Errorf("fault window %+v never closed", w)
		}
	}

	// And the residency timelines cover exactly the VMs that moved pages.
	byVM := tr.MigrationsByVM()
	for _, tl := range tr.Residency(20) {
		tot := byVM[tl.VM]
		if tot == (obs.MigrationTotals{}) {
			continue // balloon-only timelines are fine
		}
		end := tl.Points[len(tl.Points)-1].Net
		var sum int64
		for _, p := range tl.Points {
			sum += p.Delta
		}
		if sum != end {
			t.Errorf("vm %d: running net %d != delta sum %d", tl.VM, end, sum)
		}
	}
}

// TestHeterotraceReconcilesAcrossMigration repeats the reconciliation
// on the 3-host churn fleet, whose host failure evacuates VMs by live
// migration: each VM's page totals, summed from the events of every
// host it ran on, must still equal its lifetime result.
func TestHeterotraceReconcilesAcrossMigration(t *testing.T) {
	r, tr := traceRun(t, "fleet-churn.json")
	evacuations := 0
	for _, m := range r.Migrations {
		if m.Evacuation {
			evacuations++
		}
	}
	if evacuations < 2 {
		t.Fatalf("fleet-churn evacuated %d VMs, want >= 2", evacuations)
	}
	reconcile(t, r, tr)
}
