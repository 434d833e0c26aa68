package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"heteroos/internal/sim"
)

// collectSink retains everything written to it.
type collectSink struct {
	batches int
	events  []Event
	closed  bool
}

func (c *collectSink) WriteBatch(batch []Event) error {
	c.batches++
	c.events = append(c.events, batch...)
	return nil
}

func (c *collectSink) Close() error { c.closed = true; return nil }

func TestTracerFlushesFullRingToSink(t *testing.T) {
	tr := NewTracer(4)
	sink := &collectSink{}
	tr.AddSink(sink)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{PFN: uint64(i)})
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(sink.events) != 10 {
		t.Fatalf("sink saw %d events, want 10", len(sink.events))
	}
	for i, ev := range sink.events {
		if ev.PFN != uint64(i) {
			t.Fatalf("event %d has PFN %d: order not preserved", i, ev.PFN)
		}
	}
	if sink.batches < 2 {
		t.Fatalf("expected ring-full flush before Close, got %d batches", sink.batches)
	}
	if !sink.closed {
		t.Fatal("Close did not close the sink")
	}
}

// nopSink accepts and discards every batch without allocating.
type nopSink struct{}

func (nopSink) WriteBatch([]Event) error { return nil }
func (nopSink) Close() error             { return nil }

func TestEmitZeroAlloc(t *testing.T) {
	o := New()
	o.AddSink(nopSink{})
	sc := o.Scope(1, func() sim.Duration { return 42 })
	ctr := sc.Counter("x.count")
	h := sc.Histogram("x.ns")
	g := sc.Gauge("x.pct")
	// Warm: fill past one ring cycle so steady state is measured.
	for i := 0; i < DefaultRingEvents+10; i++ {
		sc.Emit(EvMigration, DirPromote, TierFast, uint64(i), 1, 0, 100)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sc.Emit(EvMigration, DirPromote, TierFast, 7, 1, 0, 100)
		ctr.Inc()
		h.Observe(123.0)
		g.Set(55.5)
	})
	if allocs != 0 {
		t.Fatalf("hot-path emit/update allocates %v allocs/op, want 0", allocs)
	}
}

func TestJSONLSinkOutputParses(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(2)
	tr.AddSink(NewJSONLSink(&buf, `graphchi/coordinated "q" seed=1`))
	tr.Emit(Event{Time: 1500, VM: 1, Type: EvMigration, Dir: DirPromote, Tier: TierFast, PFN: 77, N: 1, Aux: 3, Cost: 4100.5})
	tr.Emit(Event{Time: 2500, VM: 1, Type: EvScanPass, Dir: DirTracked, Tier: TierNone, N: 640, Aux: 12, Cost: 9000})
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3 (meta + 2 events):\n%s", len(lines), buf.String())
	}
	var meta struct {
		Meta string `json:"meta"`
		Run  string `json:"run"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil {
		t.Fatalf("meta line does not parse: %v", err)
	}
	if meta.Meta != "heteroos-events" || meta.Run != `graphchi/coordinated "q" seed=1` {
		t.Fatalf("bad meta line: %+v", meta)
	}
	var ev struct {
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
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatalf("event line does not parse: %v", err)
	}
	if ev.T != 1500 || ev.VM != 1 || ev.Ev != "migration" || ev.Dir != "promote" ||
		ev.Tier != "fast" || ev.PFN != 77 || ev.N != 1 || ev.Aux != 3 || ev.Cost != 4100.5 {
		t.Fatalf("bad event line: %+v", ev)
	}
	if err := json.Unmarshal([]byte(lines[2]), &ev); err != nil {
		t.Fatalf("second event line does not parse: %v", err)
	}
	if ev.Ev != "scan-pass" || ev.Dir != "tracked" || ev.Tier != "-" || ev.N != 640 {
		t.Fatalf("bad second event: %+v", ev)
	}
}

func TestChromeTraceSinkIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(8)
	tr.AddSink(NewChromeTraceSink(&buf, "run-tag"))
	tr.Emit(Event{Time: 1000, VM: 1, Type: EvMigration, Dir: DirDemote, Tier: TierSlow, PFN: 9, N: 1})
	tr.Emit(Event{Time: 2000, VM: 2, Type: EvScanPass, Dir: DirFull, Tier: TierNone, N: 512, Cost: 50000})
	tr.Emit(Event{Time: 3000, VM: 0, Type: EvDRFRebalance, Tier: TierNone, N: 128, Aux: 2})
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var records []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &records); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, buf.String())
	}
	// 3 process_name metadata records + 3 events.
	if len(records) != 6 {
		t.Fatalf("got %d records, want 6", len(records))
	}
	phases := map[string]int{}
	var sawDur bool
	for _, r := range records {
		ph, _ := r["ph"].(string)
		phases[ph]++
		if ph == "X" {
			if _, ok := r["dur"]; !ok {
				t.Fatalf("X record without dur: %v", r)
			}
			sawDur = true
		}
		if _, ok := r["pid"]; !ok {
			t.Fatalf("record without pid: %v", r)
		}
	}
	if phases["M"] != 3 || phases["i"] != 2 || phases["X"] != 1 || !sawDur {
		t.Fatalf("unexpected phase mix: %v", phases)
	}
}

func TestChromeTraceSinkEmptyRunIsValid(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(8)
	tr.AddSink(NewChromeTraceSink(&buf, ""))
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var records []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &records); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
	if len(records) != 0 {
		t.Fatalf("empty run produced %d records", len(records))
	}
}

func TestRegistryIdempotentAndOrdered(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("a")
	b := r.Histogram("b")
	g := r.Gauge("g")
	if r.Counter("a") != a {
		t.Fatal("re-registering a counter returned a different instrument")
	}
	if r.Histogram("b") != b || r.Gauge("g") != g {
		t.Fatal("re-registration is not idempotent")
	}
	// Kind mismatch returns a detached instrument, not a panic or the
	// wrong type.
	if r.Gauge("a") == nil {
		t.Fatal("kind-mismatched lookup returned nil")
	}
	if len(r.ordered) != 3 {
		t.Fatalf("Len = %d, want 3 (mismatch must not register)", len(r.ordered))
	}
	s := r.Snapshot()
	names := []string{s.Values[0].Name, s.Values[1].Name, s.Values[2].Name}
	if names[0] != "a" || names[1] != "b" || names[2] != "g" {
		t.Fatalf("snapshot not in registration order: %v", names)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	for i := 0; i < 99; i++ {
		h.Observe(10) // bucket for [8,16)
	}
	h.Observe(1e6)
	if h.count != 100 || h.max != 1000000 {
		t.Fatalf("count/max = %d/%d", h.count, h.max)
	}
	p50 := h.Quantile(0.50)
	if p50 < 10 || p50 > 16 {
		t.Fatalf("p50 = %v, want within [10,16]", p50)
	}
	if p100 := h.Quantile(1.0); p100 != 1e6 {
		t.Fatalf("p100 = %v, want clamped to max 1e6", p100)
	}
	var zeros Histogram
	zeros.Observe(0)
	zeros.Observe(-5) // clamps
	if zeros.Quantile(0.99) != 0 {
		t.Fatalf("all-zero histogram p99 = %v", zeros.Quantile(0.99))
	}
}

func TestSnapshotTableRenders(t *testing.T) {
	r := NewRegistry()
	r.Counter("vm1.guestos.demotions").Add(3)
	h := r.Histogram("memsim.epoch_ns")
	h.Observe(1000)
	h.Observe(3000)
	var buf bytes.Buffer
	r.Snapshot().Table("metrics").RenderCSV(&buf)
	out := buf.String()
	if !strings.Contains(out, "metric,kind,value,sum,mean,p50,p99,max") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "vm1.guestos.demotions,counter,3.00") {
		t.Fatalf("missing counter row:\n%s", out)
	}
	if !strings.Contains(out, "memsim.epoch_ns,histogram,2.00") {
		t.Fatalf("missing histogram row:\n%s", out)
	}
}

func TestScopePrefixing(t *testing.T) {
	o := New()
	now := func() sim.Duration { return 0 }
	vm2 := o.Scope(2, now)
	sys := o.Scope(0, now)
	vm2.Counter("guestos.promotions").Inc()
	sys.Counter("vmm.drf_rebalances").Inc()
	s := o.Metrics.Snapshot()
	if s.Find("vm2/guestos.promotions") == nil {
		t.Fatalf("missing scoped VM metric: %+v", s.Values)
	}
	if s.Find("vmm.drf_rebalances") == nil {
		t.Fatalf("system scope must not prefix: %+v", s.Values)
	}
	if vm2.Registry().path != "vm2" {
		t.Fatalf("vm scope path = %q, want vm2", vm2.Registry().path)
	}
	if sys.Registry() != o.Metrics {
		t.Fatal("system scope must use the root registry")
	}
	var nilObs *Obs
	if nilObs.Scope(1, now) != nil {
		t.Fatal("nil Obs must yield nil Scope")
	}
	if nilObs.RunTag() != "" {
		t.Fatal("nil Obs RunTag should be empty")
	}
	if err := nilObs.Close(); err != nil {
		t.Fatalf("nil Obs Close: %v", err)
	}
}
