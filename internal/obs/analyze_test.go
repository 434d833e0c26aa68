package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestParseJSONLRoundTrip pushes a representative event set through
// JSONLSink and checks the parser reconstructs every field exactly.
func TestParseJSONLRoundTrip(t *testing.T) {
	events := []Event{
		{Time: 100, VM: 1, Type: EvMigration, Dir: DirPromote, Tier: TierFast, PFN: 42, N: 8, Cost: 1500.5},
		{Time: 200, VM: 2, Type: EvMigration, Dir: DirVMMDemote, Tier: TierSlow, PFN: 7, N: 1, Cost: 900},
		{Time: 250, VM: 1, Type: EvBalloon, Dir: DirInflate, Tier: TierFast, N: 64},
		{Time: 300, VM: 0, Type: EvDRFRebalance, Dir: DirNone, Tier: TierNone, N: 32, Aux: 2},
		{Time: 400, VM: 3, Type: EvFaultInject, Dir: DirStart, Tier: TierNone, Aux: FaultSurge},
		{Time: 500, VM: 3, Type: EvFaultInject, Dir: DirClear, Tier: TierNone, Aux: FaultSurge},
		{Time: 600, VM: 2, Type: EvBalloonRefused, Dir: DirDeflate, Tier: TierFast, N: 5, Aux: 16},
	}
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf, "round/trip seed=9")
	if err := sink.WriteBatch(events); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	tr, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Run != "round/trip seed=9" {
		t.Errorf("run = %q", tr.Run)
	}
	if tr.Version != 1 {
		t.Errorf("version = %d, want 1", tr.Version)
	}
	if len(tr.Events) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(tr.Events), len(events))
	}
	for i, want := range events {
		if tr.Events[i] != want {
			t.Errorf("event %d = %+v, want %+v", i, tr.Events[i], want)
		}
	}
}

// TestParseJSONLWithoutHeader accepts grep/tail fragments that lost the
// meta line, and rejects unknown taxonomy names loudly.
func TestParseJSONLWithoutHeader(t *testing.T) {
	frag := `{"t":5,"vm":1,"ev":"migration","dir":"promote","tier":"fast","pfn":0,"n":3,"aux":0,"cost":10}` + "\n"
	tr, err := ParseJSONL(strings.NewReader(frag))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 1 || tr.Events[0].N != 3 {
		t.Fatalf("fragment parse = %+v", tr.Events)
	}

	bad := `{"t":5,"vm":1,"ev":"teleportation","dir":"promote","tier":"fast","pfn":0,"n":3,"aux":0,"cost":10}` + "\n"
	if _, err := ParseJSONL(strings.NewReader(bad)); err == nil {
		t.Fatal("unknown event type parsed silently")
	}
	badDir := `{"t":5,"vm":1,"ev":"migration","dir":"sideways","tier":"fast","pfn":0,"n":3,"aux":0,"cost":10}` + "\n"
	if _, err := ParseJSONL(strings.NewReader(badDir)); err == nil {
		t.Fatal("unknown direction parsed silently")
	}
}

// trace builds a Trace directly from events (bypassing the sink).
func trace(events ...Event) *Trace { return &Trace{Events: events} }

// TestMigrationGroups checks per-direction aggregation, tier pairs, and
// the exact quantiles.
func TestMigrationGroups(t *testing.T) {
	tr := trace(
		Event{Time: 1, VM: 1, Type: EvMigration, Dir: DirPromote, Tier: TierFast, N: 4, Cost: 100},
		Event{Time: 2, VM: 1, Type: EvMigration, Dir: DirPromote, Tier: TierFast, N: 2, Cost: 300},
		Event{Time: 3, VM: 2, Type: EvMigration, Dir: DirDemote, Tier: TierSlow, N: 1, Cost: 50},
		Event{Time: 4, VM: 1, Type: EvScanPass, Dir: DirFull, N: 100, Cost: 1}, // not a migration
	)
	groups := tr.Migrations()
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	p := groups[0]
	if p.Dir != DirPromote || p.From != "slow" || p.To != "fast" {
		t.Errorf("promote group = %+v", p)
	}
	if p.Events != 2 || p.Pages != 6 || p.CostTotal != 400 || p.CostMean != 200 {
		t.Errorf("promote stats = %+v", p)
	}
	if p.CostP50 != 100 || p.CostP99 != 300 || p.CostMax != 300 {
		t.Errorf("promote quantiles = p50 %v p99 %v max %v", p.CostP50, p.CostP99, p.CostMax)
	}
	d := groups[1]
	if d.Dir != DirDemote || d.From != "fast" || d.To != "slow" || d.Pages != 1 {
		t.Errorf("demote group = %+v", d)
	}
}

// TestMigrationsByVM checks the per-VM page totals that the reconcile
// gate depends on, including VMM-executed directions.
func TestMigrationsByVM(t *testing.T) {
	tr := trace(
		Event{VM: 1, Type: EvMigration, Dir: DirPromote, N: 4},
		Event{VM: 1, Type: EvMigration, Dir: DirVMMPromote, N: 3},
		Event{VM: 1, Type: EvMigration, Dir: DirDemote, N: 2},
		Event{VM: 2, Type: EvMigration, Dir: DirVMMDemote, N: 9},
	)
	byVM := tr.MigrationsByVM()
	if got := byVM[1]; got.Promoted != 4 || got.VMMPromoted != 3 || got.Demoted != 2 || got.VMMDemoted != 0 {
		t.Errorf("vm1 totals = %+v", got)
	}
	if got := byVM[1]; got.Promoted+got.VMMPromoted != 7 || got.Demoted+got.VMMDemoted != 2 {
		t.Errorf("vm1 migrations = %+v, want 7 pages into FastMem and 2 out", got)
	}
	if got := byVM[2]; got.Promoted != 0 || got.VMMDemoted != 9 {
		t.Errorf("vm2 totals = %+v", got)
	}
}

// TestResidencyTimeline checks bucketing and the running net series.
func TestResidencyTimeline(t *testing.T) {
	tr := trace(
		Event{Time: 0, VM: 1, Type: EvMigration, Dir: DirPromote, N: 10},
		Event{Time: 50, VM: 1, Type: EvMigration, Dir: DirDemote, N: 4},
		Event{Time: 99, VM: 1, Type: EvBalloon, Dir: DirInflate, Tier: TierFast, N: 1},
		Event{Time: 99, VM: 1, Type: EvBalloon, Dir: DirDeflate, Tier: TierSlow, N: 100}, // slow tier: no fast effect
		Event{Time: 10, VM: 0, Type: EvMigration, Dir: DirPromote, N: 99},                // system scope skipped
	)
	tls := tr.Residency(2)
	if len(tls) != 1 || tls[0].VM != 1 {
		t.Fatalf("timelines = %+v", tls)
	}
	pts := tls[0].Points
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2", len(pts))
	}
	if pts[0].Delta != 10 || pts[0].Net != 10 {
		t.Errorf("bucket 0 = %+v", pts[0])
	}
	// Bucket 1: -4 (demote) -1 (fast inflate) = -5, net 5.
	if pts[1].Delta != -5 || pts[1].Net != 5 {
		t.Errorf("bucket 1 = %+v", pts[1])
	}
}

// TestFaultWindows checks start/clear pairing and migration recovery.
func TestFaultWindows(t *testing.T) {
	tr := trace(
		Event{Time: 100, VM: 1, Type: EvFaultInject, Dir: DirStart, Aux: FaultMigrationStall},
		Event{Time: 500, VM: 1, Type: EvFaultInject, Dir: DirClear, Aux: FaultMigrationStall},
		Event{Time: 800, VM: 2, Type: EvMigration, Dir: DirPromote, N: 1}, // other VM: not recovery
		Event{Time: 900, VM: 1, Type: EvMigration, Dir: DirPromote, N: 1},
		Event{Time: 950, VM: 2, Type: EvFaultInject, Dir: DirStart, Aux: FaultSurge}, // never cleared
	)
	ws := tr.FaultWindows()
	if len(ws) != 2 {
		t.Fatalf("windows = %+v", ws)
	}
	w := ws[0]
	if w.VM != 1 || w.Fault != "migration-stall" || w.Start != 100 || w.Clear != 500 || w.Duration != 400 {
		t.Errorf("window 0 = %+v", w)
	}
	if w.RecoveryNs != 400 { // 900 - 500, skipping VM 2's migration
		t.Errorf("recovery = %d, want 400", w.RecoveryNs)
	}
	open := ws[1]
	if open.Clear != -1 || open.Duration != -1 || open.RecoveryNs != -1 {
		t.Errorf("open window = %+v", open)
	}
}

// TestRefusalRuns checks that honoured balloon ops split refusal runs.
func TestRefusalRuns(t *testing.T) {
	tr := trace(
		Event{Time: 10, VM: 1, Type: EvBalloonRefused, N: 4},
		Event{Time: 20, VM: 1, Type: EvBalloonRefused, N: 6},
		Event{Time: 25, VM: 2, Type: EvBalloonRefused, N: 1}, // interleaved, own run
		Event{Time: 30, VM: 1, Type: EvBalloon, Dir: DirDeflate, N: 8},
		Event{Time: 40, VM: 1, Type: EvBalloonRefused, N: 2},
	)
	runs := tr.RefusalRuns()
	if len(runs) != 3 {
		t.Fatalf("runs = %+v", runs)
	}
	if r := runs[0]; r.VM != 1 || r.Start != 10 || r.End != 20 || r.Events != 2 || r.ShortPages != 10 {
		t.Errorf("run 0 = %+v", r)
	}
	if r := runs[1]; r.VM != 2 || r.Events != 1 {
		t.Errorf("run 1 = %+v", r)
	}
	if r := runs[2]; r.VM != 1 || r.Start != 40 || r.Events != 1 || r.ShortPages != 2 {
		t.Errorf("run 2 = %+v", r)
	}
}

// TestAnalysisTablesRender smoke-tests the table renderers on synthetic
// data (a panic or empty render here would break the CLI).
func TestAnalysisTablesRender(t *testing.T) {
	tr := trace(
		Event{Time: 1, VM: 1, Type: EvMigration, Dir: DirPromote, N: 4, Cost: 100},
		Event{Time: 2, VM: 1, Type: EvFaultInject, Dir: DirStart, Aux: FaultSurge},
		Event{Time: 3, VM: 1, Type: EvFaultInject, Dir: DirClear, Aux: FaultSurge},
		Event{Time: 4, VM: 1, Type: EvBalloonRefused, N: 1},
	)
	for _, tbl := range []interface{ String() string }{
		MigrationTable(tr.Migrations()),
		ResidencyTable(tr.Residency(4)),
		FaultTable(tr.FaultWindows()),
		RefusalTable(tr.RefusalRuns()),
	} {
		if !strings.Contains(tbl.String(), "1") {
			t.Errorf("table missing data:\n%s", tbl.String())
		}
	}
}
