// End-to-end observability tests: a full GraphChi run with sinks
// attached must produce an event stream whose migration counts
// reconcile exactly with the run's VMResult and a Perfetto-loadable
// Chrome trace.
package heteroos

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"heteroos/internal/core"
	"heteroos/internal/fleet"
	"heteroos/internal/obs"
	"heteroos/internal/policy"
	"heteroos/internal/workload"
)

// obsGraphChiConfig is the bench_test GraphChi shape (1/4 capacity
// ratio) with observability attached.
func obsGraphChiConfig(t *testing.T, mode policy.Mode, handle *obs.Obs) core.Config {
	t.Helper()
	w, err := workload.ByName("GraphChi", workload.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	slow := workload.Config{}.Pages(8 * workload.GiB)
	return core.Config{
		FastFrames: slow/4 + slow + 8192,
		SlowFrames: slow + 8192,
		Seed:       1,
		Obs:        handle,
		VMs: []core.VMConfig{{
			ID: 1, Mode: mode, Workload: w,
			FastPages: slow / 4, SlowPages: slow,
		}},
	}
}

// eventLine mirrors the JSONL wire format.
type eventLine struct {
	T    int64   `json:"t"`
	VM   int     `json:"vm"`
	Ev   string  `json:"ev"`
	Dir  string  `json:"dir"`
	Tier string  `json:"tier"`
	PFN  uint64  `json:"pfn"`
	N    uint64  `json:"n"`
	Aux  uint64  `json:"aux"`
	Cost float64 `json:"cost"`
}

func TestEventStreamReconcilesWithResult(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	var jsonl, chrome bytes.Buffer
	handle := obs.New()
	handle.SetRunTag("GraphChi/coordinated test")
	handle.AddSink(obs.NewJSONLSink(&jsonl, handle.RunTag()))
	handle.AddSink(obs.NewChromeTraceSink(&chrome, handle.RunTag()))

	cfg := obsGraphChiConfig(t, policy.HeteroOSCoordinated(), handle)
	sys, err := core.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := &sys.VMs[0].Res
	if err := handle.Close(); err != nil {
		t.Fatalf("closing sinks: %v", err)
	}

	// Every JSONL line parses; migration events sum to the result's
	// totals page for page.
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("event stream too short: %d lines", len(lines))
	}
	var meta struct {
		Meta string `json:"meta"`
		Run  string `json:"run"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil {
		t.Fatalf("meta header: %v", err)
	}
	if meta.Meta != "heteroos-events" || meta.Run != handle.RunTag() {
		t.Fatalf("bad meta header: %+v", meta)
	}
	var promoted, demoted, balloonIn, balloonOut uint64
	for i, line := range lines[1:] {
		var ev eventLine
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event line %d does not parse: %v\n%s", i+1, err, line)
		}
		switch {
		case ev.Ev == "migration" && ev.Dir == "promote":
			promoted += ev.N
			if ev.Tier != "fast" {
				t.Fatalf("promotion into tier %q", ev.Tier)
			}
		case ev.Ev == "migration" && ev.Dir == "demote":
			demoted += ev.N
		case ev.Ev == "balloon" && ev.Dir == "deflate":
			balloonIn += ev.N
		case ev.Ev == "balloon" && ev.Dir == "inflate":
			balloonOut += ev.N
		}
	}
	if promoted != res.Promotions {
		t.Errorf("event promotions %d != VMResult.Promotions %d", promoted, res.Promotions)
	}
	if demoted != res.Demotions {
		t.Errorf("event demotions %d != VMResult.Demotions %d", demoted, res.Demotions)
	}
	if res.Promotions == 0 {
		t.Error("coordinated GraphChi run recorded no promotions — test has no teeth")
	}
	if balloonIn == 0 {
		t.Error("no balloon deflate events (boot populates via balloon)")
	}
	_ = balloonOut // inflate only occurs under cross-VM pressure

	// Metrics agree with the event stream: the registry's counters are
	// fed at the same chokepoints.
	snap := handle.Metrics.Snapshot()
	if v := snap.Find("vm1/guestos.promotions"); v == nil || uint64(v.Value) != res.Promotions {
		t.Errorf("metric vm1/guestos.promotions = %+v, want %d", v, res.Promotions)
	}
	if v := snap.Find("vm1/guestos.demotions"); v == nil || uint64(v.Value) != res.Demotions {
		t.Errorf("metric vm1/guestos.demotions = %+v, want %d", v, res.Demotions)
	}
	if v := snap.Find("vm1/core.epochs"); v == nil || int(v.Value) != res.Epochs {
		t.Errorf("metric vm1/core.epochs = %+v, want %d", v, res.Epochs)
	}
	if v := snap.Find("memsim.charges"); v == nil || int(v.Value) != res.Epochs {
		t.Errorf("metric memsim.charges = %+v, want %d", v, res.Epochs)
	}
	if v := snap.Find("vm1/vmm.scan_passes"); v == nil || int(v.Value) != res.ScanPasses {
		t.Errorf("metric vm1/vmm.scan_passes = %+v, want %d", v, res.ScanPasses)
	}

	// The Chrome export is one valid JSON array whose records all carry
	// the trace_event required fields.
	var records []map[string]any
	if err := json.Unmarshal(chrome.Bytes(), &records); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(records) == 0 {
		t.Fatal("chrome trace is empty")
	}
	for _, r := range records {
		ph, _ := r["ph"].(string)
		if ph == "" {
			t.Fatalf("record without ph: %v", r)
		}
		if _, ok := r["pid"]; !ok {
			t.Fatalf("record without pid: %v", r)
		}
		if ph != "M" {
			if _, ok := r["ts"]; !ok {
				t.Fatalf("event record without ts: %v", r)
			}
		}
	}
}

// TestObsDoesNotPerturbSimulation asserts the determinism contract:
// attaching observability changes nothing about the simulated outcome.
func TestObsDoesNotPerturbSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	bare, err := core.Run(context.Background(), obsGraphChiConfig(t, policy.HeteroOSCoordinated(), nil))
	if err != nil {
		t.Fatal(err)
	}
	handle := obs.New() // no sinks: no tracer, metrics accumulate
	observed, err := core.Run(context.Background(), obsGraphChiConfig(t, policy.HeteroOSCoordinated(), handle))
	if err != nil {
		t.Fatal(err)
	}
	if bare.VMs[0].Res != observed.VMs[0].Res {
		t.Errorf("observability perturbed the simulation:\nbare:     %+v\nobserved: %+v", bare.VMs[0].Res, observed.VMs[0].Res)
	}
}

// TestSinklessHandleRecordsNoEvents runs a one-host fleet with a
// handle that has no sink: neither the root handle nor any host child
// builds a tracer, while the metrics still reconcile with the results.
func TestSinklessHandleRecordsNoEvents(t *testing.T) {
	sc, err := fleet.LoadBundled("churn.json")
	if err != nil {
		t.Fatal(err)
	}
	h := obs.New()
	r, err := fleet.Run(context.Background(), sc, fleet.Options{Obs: h})
	if err != nil {
		t.Fatal(err)
	}
	if h.Tracer != nil {
		t.Error("sinkless root handle built a tracer")
	}
	for _, hr := range r.HostRuns {
		if hr.Obs == nil || hr.Obs.Tracer != nil {
			t.Errorf("host %d: want a handle without a tracer, got %+v", hr.ID, hr.Obs)
		}
	}
	mv := h.Metrics.Snapshot().Rollup().Find("core.epochs")
	if mv == nil {
		t.Fatal("rollup has no core.epochs counter")
	}
	epochs := 0
	for i := range r.VMs {
		epochs += r.VMs[i].Res.Epochs
	}
	if mv.Value != float64(epochs) {
		t.Errorf("rolled-up core.epochs = %v, sum of Res.Epochs = %d", mv.Value, epochs)
	}
}
