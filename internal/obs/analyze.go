package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"heteroos/internal/metrics"
	"heteroos/internal/sim"
)

// This file is the offline half of the tracer: it parses the JSONL
// event stream the JSONLSink writes and derives the statistics the
// heterotrace CLI reports — migration latency distributions per tier
// pair, per-VM FastMem residency timelines, fault-injection windows
// with recovery times, and balloon-refusal runs. Everything here runs
// after the simulation, so it favours exactness (sorted quantiles)
// over the zero-allocation discipline of the live path.

// typeByName and dirByName invert the stable wire names, so the parser
// stays in lockstep with the sinks by construction.
var (
	typeByName = func() map[string]Type {
		m := make(map[string]Type, int(numTypes))
		for t := Type(0); t < numTypes; t++ {
			m[t.String()] = t
		}
		return m
	}()
	dirByName = func() map[string]Dir {
		m := make(map[string]Dir, int(numDirs))
		for d := Dir(0); d < numDirs; d++ {
			m[d.String()] = d
		}
		return m
	}()
)

// MarshalJSON renders the type by its stable wire name, matching the
// JSONL stream (used by heterotrace's JSON reports).
func (t Type) MarshalJSON() ([]byte, error) { return json.Marshal(t.String()) }

// MarshalJSON renders the direction by its stable wire name.
func (d Dir) MarshalJSON() ([]byte, error) { return json.Marshal(d.String()) }

// tierByName inverts TierName.
func tierByName(s string) (uint8, bool) {
	switch s {
	case "fast":
		return TierFast, true
	case "slow":
		return TierSlow, true
	case "-":
		return TierNone, true
	default:
		return 0, false
	}
}

// Trace is a parsed JSONL event stream.
type Trace struct {
	// Run is the run tag from the stream's meta header.
	Run string
	// Version is the stream format version from the meta header.
	Version int
	// Events holds every decoded event in stream (time) order.
	Events []Event
}

// wireEvent mirrors the JSONL field set written by appendEventFields.
type wireEvent struct {
	T    int64   `json:"t"`
	VM   int32   `json:"vm"`
	Ev   string  `json:"ev"`
	Dir  string  `json:"dir"`
	Tier string  `json:"tier"`
	PFN  uint64  `json:"pfn"`
	N    uint64  `json:"n"`
	Aux  uint64  `json:"aux"`
	Cost float64 `json:"cost"`
	// Meta header fields (only on line 1).
	Meta    string `json:"meta"`
	Version int    `json:"version"`
	Run     string `json:"run"`
}

// ParseJSONL decodes a JSONL event stream produced by JSONLSink. The
// meta header is optional (grep/head fragments parse fine); unknown
// event or direction names are an error so silent taxonomy drift
// cannot corrupt an analysis.
func ParseJSONL(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var w wireEvent
		if err := json.Unmarshal(line, &w); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if w.Meta != "" {
			if w.Meta != "heteroos-events" {
				return nil, fmt.Errorf("line %d: unknown stream kind %q", lineNo, w.Meta)
			}
			tr.Run, tr.Version = w.Run, w.Version
			continue
		}
		ty, ok := typeByName[w.Ev]
		if !ok {
			return nil, fmt.Errorf("line %d: unknown event type %q", lineNo, w.Ev)
		}
		dir, ok := dirByName[w.Dir]
		if !ok {
			return nil, fmt.Errorf("line %d: unknown direction %q", lineNo, w.Dir)
		}
		tier, ok := tierByName(w.Tier)
		if !ok {
			return nil, fmt.Errorf("line %d: unknown tier %q", lineNo, w.Tier)
		}
		tr.Events = append(tr.Events, Event{
			Time: sim.Duration(w.T), VM: w.VM, Type: ty, Dir: dir,
			Tier: tier, PFN: w.PFN, N: w.N, Aux: w.Aux, Cost: w.Cost,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tr, nil
}

// --- migration latency distributions per tier pair ---

// MigrationGroup aggregates the migrations of one direction (one tier
// pair and executor).
type MigrationGroup struct {
	// Dir is the migration variant (promote/demote/vmm-promote/...).
	Dir Dir `json:"dir"`
	// From and To name the tier pair the direction implies.
	From string `json:"from"`
	To   string `json:"to"`
	// Events counts migration events, Pages the pages they moved.
	Events uint64 `json:"events"`
	Pages  uint64 `json:"pages"`
	// CostTotal sums the charged simulated nanoseconds; the quantiles
	// are exact (computed over the sorted per-event costs).
	CostTotal float64 `json:"cost_total_ns"`
	CostMean  float64 `json:"cost_mean_ns"`
	CostP50   float64 `json:"cost_p50_ns"`
	CostP99   float64 `json:"cost_p99_ns"`
	CostMax   float64 `json:"cost_max_ns"`

	costs []float64
}

// tierPair names the source and destination tier a migration direction
// implies (the event's Tier byte is the destination).
func tierPair(d Dir) (from, to string) {
	switch d {
	case DirPromote, DirVMMPromote:
		return "slow", "fast"
	case DirDemote, DirVMMDemote:
		return "fast", "slow"
	default:
		return "-", "-"
	}
}

// exactQuantile reads quantile q from sorted (ascending) samples using
// the nearest-rank method.
func exactQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Migrations groups the trace's migration events by direction, in
// fixed direction order (promote, demote, vmm-promote, vmm-demote).
// Directions with no events are omitted.
func (tr *Trace) Migrations() []MigrationGroup {
	byDir := map[Dir]*MigrationGroup{}
	for i := range tr.Events {
		ev := &tr.Events[i]
		if ev.Type != EvMigration {
			continue
		}
		g := byDir[ev.Dir]
		if g == nil {
			from, to := tierPair(ev.Dir)
			g = &MigrationGroup{Dir: ev.Dir, From: from, To: to}
			byDir[ev.Dir] = g
		}
		g.Events++
		g.Pages += ev.N
		g.CostTotal += ev.Cost
		g.costs = append(g.costs, ev.Cost)
	}
	var out []MigrationGroup
	for _, d := range []Dir{DirPromote, DirDemote, DirVMMPromote, DirVMMDemote} {
		g := byDir[d]
		if g == nil {
			continue
		}
		sort.Float64s(g.costs)
		g.CostMean = g.CostTotal / float64(g.Events)
		g.CostP50 = exactQuantile(g.costs, 0.50)
		g.CostP99 = exactQuantile(g.costs, 0.99)
		g.CostMax = g.costs[len(g.costs)-1]
		out = append(out, *g)
	}
	return out
}

// MigrationTotals sums migrated pages per VM, split by direction and
// executor the same way core.VMResult accounts them: Promoted/Demoted
// are guest-executed (coordinated) pages reconciling with
// VMResult.Promotions/Demotions, and VMMPromoted+VMMDemoted reconcile
// with VMResult.VMMMigrations on a run whose event stream was fully
// captured.
type MigrationTotals struct {
	Promoted    uint64 `json:"promoted_pages"`
	Demoted     uint64 `json:"demoted_pages"`
	VMMPromoted uint64 `json:"vmm_promoted_pages"`
	VMMDemoted  uint64 `json:"vmm_demoted_pages"`
}

// MigrationsByVM returns per-VM migration page totals.
func (tr *Trace) MigrationsByVM() map[int32]MigrationTotals {
	out := map[int32]MigrationTotals{}
	for i := range tr.Events {
		ev := &tr.Events[i]
		if ev.Type != EvMigration {
			continue
		}
		t := out[ev.VM]
		switch ev.Dir {
		case DirPromote:
			t.Promoted += ev.N
		case DirDemote:
			t.Demoted += ev.N
		case DirVMMPromote:
			t.VMMPromoted += ev.N
		case DirVMMDemote:
			t.VMMDemoted += ev.N
		}
		out[ev.VM] = t
	}
	return out
}

// MigrationTable renders the per-direction migration report.
func MigrationTable(groups []MigrationGroup) *metrics.Table {
	t := metrics.NewTable("Migrations by tier pair",
		"dir", "from", "to", "events", "pages",
		"cost_total_ns", "cost_mean_ns", "cost_p50_ns", "cost_p99_ns", "cost_max_ns")
	t.Caption = "simulated per-event migration cost; quantiles are exact (nearest rank)"
	for _, g := range groups {
		t.AddRow(g.Dir.String(), g.From, g.To, g.Events, g.Pages,
			g.CostTotal, g.CostMean, g.CostP50, g.CostP99, g.CostMax)
	}
	return t
}

// --- per-VM FastMem residency timelines ---

// ResidencyPoint is one time bucket of one VM's FastMem residency
// delta: the net fast pages gained (positive) or lost (negative)
// through migrations and balloon traffic inside the bucket.
type ResidencyPoint struct {
	// Start is the bucket's inclusive start time in simulated ns.
	Start int64 `json:"start_ns"`
	// Delta is the bucket's net fast-page movement.
	Delta int64 `json:"delta_pages"`
	// Net is the running net residency (cumulative deltas) at the
	// bucket's end, relative to the VM's residency at trace start.
	Net int64 `json:"net_pages"`
}

// ResidencyTimeline is one VM's bucketed FastMem residency series.
type ResidencyTimeline struct {
	VM     int32            `json:"vm"`
	Points []ResidencyPoint `json:"points"`
}

// fastDelta maps an event to its net FastMem page effect for the
// emitting VM (0 when the event does not move fast pages).
func fastDelta(ev *Event) int64 {
	switch ev.Type {
	case EvMigration:
		switch ev.Dir {
		case DirPromote, DirVMMPromote:
			return int64(ev.N)
		case DirDemote, DirVMMDemote:
			return -int64(ev.N)
		}
	case EvBalloon:
		if ev.Tier != TierFast {
			return 0
		}
		switch ev.Dir {
		case DirDeflate: // guest populated fast frames
			return int64(ev.N)
		case DirInflate: // guest released fast frames
			return -int64(ev.N)
		}
	}
	return 0
}

// Residency buckets each VM's net FastMem movement over the trace's
// time span into the given number of equal-width buckets (minimum 1).
// VMs are reported in ascending id order; VM 0 (system scope) is
// skipped because lifecycle events carry no residency.
func (tr *Trace) Residency(buckets int) []ResidencyTimeline {
	if buckets < 1 {
		buckets = 1
	}
	var tmin, tmax int64
	first := true
	for i := range tr.Events {
		t := int64(tr.Events[i].Time)
		if first {
			tmin, tmax, first = t, t, false
			continue
		}
		if t < tmin {
			tmin = t
		}
		if t > tmax {
			tmax = t
		}
	}
	if first {
		return nil
	}
	span := tmax - tmin + 1
	width := span / int64(buckets)
	if width == 0 {
		width = 1
	}
	series := map[int32][]int64{}
	for i := range tr.Events {
		ev := &tr.Events[i]
		d := fastDelta(ev)
		if d == 0 || ev.VM == 0 {
			continue
		}
		s := series[ev.VM]
		if s == nil {
			s = make([]int64, buckets)
			series[ev.VM] = s
		}
		b := int((int64(ev.Time) - tmin) / width)
		if b >= buckets {
			b = buckets - 1
		}
		s[b] += d
	}
	vms := make([]int32, 0, len(series))
	for vm := range series {
		vms = append(vms, vm)
	}
	sort.Slice(vms, func(i, j int) bool { return vms[i] < vms[j] })
	out := make([]ResidencyTimeline, 0, len(vms))
	for _, vm := range vms {
		tl := ResidencyTimeline{VM: vm, Points: make([]ResidencyPoint, buckets)}
		var net int64
		for b := 0; b < buckets; b++ {
			net += series[vm][b]
			tl.Points[b] = ResidencyPoint{
				Start: tmin + int64(b)*width,
				Delta: series[vm][b],
				Net:   net,
			}
		}
		out = append(out, tl)
	}
	return out
}

// ResidencyTable renders residency timelines, one row per (vm, bucket)
// with delta and running net.
func ResidencyTable(timelines []ResidencyTimeline) *metrics.Table {
	t := metrics.NewTable("FastMem residency timeline (net pages vs trace start)",
		"vm", "bucket", "start_ns", "delta_pages", "net_pages")
	t.Caption = "migration and fast-tier balloon traffic bucketed over the trace span"
	for _, tl := range timelines {
		for b, p := range tl.Points {
			if p.Delta == 0 && (b == 0 || tl.Points[b-1].Net == p.Net) && b != len(tl.Points)-1 {
				// Idle interior buckets add no information; keep the
				// final bucket so the ending net is always visible.
				continue
			}
			t.AddRow(tl.VM, b, p.Start, p.Delta, p.Net)
		}
	}
	return t
}

// --- fault-injection windows with recovery ---

// FaultWindow is one start/clear pair of a fault injection, plus the
// time the affected VM took to migrate again after the window cleared.
type FaultWindow struct {
	VM    int32  `json:"vm"`
	Fault string `json:"fault"`
	// Start and Clear are simulated timestamps; Clear is -1 for a
	// window still open at trace end.
	Start int64 `json:"start_ns"`
	Clear int64 `json:"clear_ns"`
	// Duration is Clear-Start (-1 while open).
	Duration int64 `json:"duration_ns"`
	// RecoveryNs is the delay from Clear to the VM's next migration
	// event (-1 if it never migrated again or the window never closed).
	RecoveryNs int64 `json:"recovery_ns"`
}

// FaultWindows pairs EvFaultInject start/clear events per (VM, fault
// code) and measures post-clear migration recovery.
func (tr *Trace) FaultWindows() []FaultWindow {
	type key struct {
		vm   int32
		code uint64
	}
	open := map[key]int{} // index into out
	var out []FaultWindow
	for i := range tr.Events {
		ev := &tr.Events[i]
		if ev.Type != EvFaultInject {
			continue
		}
		k := key{ev.VM, ev.Aux}
		switch ev.Dir {
		case DirStart:
			open[k] = len(out)
			out = append(out, FaultWindow{
				VM: ev.VM, Fault: FaultName(ev.Aux),
				Start: int64(ev.Time), Clear: -1, Duration: -1, RecoveryNs: -1,
			})
		case DirClear:
			if idx, ok := open[k]; ok {
				w := &out[idx]
				w.Clear = int64(ev.Time)
				w.Duration = w.Clear - w.Start
				delete(open, k)
			}
		}
	}
	// Recovery: first migration event by the same VM at or after Clear.
	// Faults targeting VM 0 (system-wide, e.g. throttle shifts) recover
	// on any VM's migration.
	for wi := range out {
		w := &out[wi]
		if w.Clear < 0 {
			continue
		}
		for i := range tr.Events {
			ev := &tr.Events[i]
			if ev.Type != EvMigration || int64(ev.Time) < w.Clear {
				continue
			}
			if w.VM != 0 && ev.VM != w.VM {
				continue
			}
			w.RecoveryNs = int64(ev.Time) - w.Clear
			break
		}
	}
	return out
}

// FaultTable renders the fault-window report.
func FaultTable(windows []FaultWindow) *metrics.Table {
	t := metrics.NewTable("Fault-injection windows",
		"vm", "fault", "start_ns", "clear_ns", "duration_ns", "recovery_ns")
	t.Caption = "recovery = delay from window clear to the VM's next migration (-1: none)"
	for _, w := range windows {
		clear, dur := "open", "-"
		if w.Clear >= 0 {
			clear = fmt.Sprint(w.Clear)
			dur = fmt.Sprint(w.Duration)
		}
		rec := "-1"
		if w.RecoveryNs >= 0 {
			rec = fmt.Sprint(w.RecoveryNs)
		}
		t.AddRow(w.VM, w.Fault, w.Start, clear, dur, rec)
	}
	return t
}

// --- balloon-refusal runs ---

// RefusalRun is one maximal run of consecutive balloon-refused events
// for a VM (consecutive in that VM's event substream).
type RefusalRun struct {
	VM    int32 `json:"vm"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Events counts the refusals in the run; ShortPages sums the pages
	// each populate request fell short by.
	Events     uint64 `json:"events"`
	ShortPages uint64 `json:"short_pages"`
}

// RefusalRuns groups balloon-refused events into per-VM runs: a run
// ends when the VM next emits a balloon event that was honoured.
func (tr *Trace) RefusalRuns() []RefusalRun {
	cur := map[int32]int{} // vm -> open run index
	var out []RefusalRun
	for i := range tr.Events {
		ev := &tr.Events[i]
		switch ev.Type {
		case EvBalloonRefused:
			idx, ok := cur[ev.VM]
			if !ok {
				idx = len(out)
				out = append(out, RefusalRun{VM: ev.VM, Start: int64(ev.Time)})
				cur[ev.VM] = idx
			}
			r := &out[idx]
			r.End = int64(ev.Time)
			r.Events++
			r.ShortPages += ev.N
		case EvBalloon:
			// An honoured balloon event closes the VM's open run.
			delete(cur, ev.VM)
		}
	}
	return out
}

// RefusalTable renders the balloon-refusal report.
func RefusalTable(runs []RefusalRun) *metrics.Table {
	t := metrics.NewTable("Balloon-refusal runs",
		"vm", "start_ns", "end_ns", "events", "short_pages")
	t.Caption = "a run is consecutive refusals until the VM's next honoured balloon op"
	for _, r := range runs {
		t.AddRow(r.VM, r.Start, r.End, r.Events, r.ShortPages)
	}
	return t
}
