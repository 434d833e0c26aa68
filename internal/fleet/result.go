package fleet

import (
	"fmt"
	"reflect"
	"strings"

	"heteroos/internal/core"
	"heteroos/internal/metrics"
	"heteroos/internal/obs"
	"heteroos/internal/vmm"
)

// VMRun is one VM's fleet outcome.
type VMRun struct {
	ID   vmm.VMID `json:"id"`
	App  string   `json:"app"`
	Mode string   `json:"mode"`
	// BootRound is when the VM joined (0 for round-0 VMs).
	BootRound int `json:"boot_round"`
	// Host is where the VM (and its result) ended up.
	Host int `json:"host"`
	// ShutdownRound is when the VM was retired, or -1.
	ShutdownRound int `json:"shutdown_round"`
	// Migrations counts the VM's cross-host live migrations.
	Migrations int `json:"migrations"`
	// Completed reports whether the workload ran to the end.
	Completed bool `json:"completed"`
	// Lost marks a VM stranded on a failed host that no survivor could
	// absorb; Res then holds its partial progress up to the failure.
	Lost bool          `json:"lost,omitempty"`
	Res  core.VMResult `json:"result"`
}

// MigrationRecord is one cross-host live migration.
type MigrationRecord struct {
	Round int      `json:"round"`
	VM    vmm.VMID `json:"vm"`
	From  int      `json:"from"`
	To    int      `json:"to"`
	// Frames is the machine-frame footprint that moved.
	Frames uint64 `json:"frames"`
	// Evacuation marks a host-failure evacuation (vs a placement
	// rebalance).
	Evacuation bool `json:"evacuation,omitempty"`
	// HeatPreserved reports whether the VM's HeatIndex summary was
	// bit-identical before and after the move.
	HeatPreserved bool `json:"heat_preserved"`
}

// RoundSample is one fleet timeline point, taken at each round's
// barrier.
type RoundSample struct {
	Round     int `json:"round"`
	LiveHosts int `json:"live_hosts"`
	// ResidentVMs counts VMs not yet shut down or lost; RunningVMs the
	// subset still doing work.
	ResidentVMs int `json:"resident_vms"`
	RunningVMs  int `json:"running_vms"`
	// FastFree sums live hosts' free FastMem frames.
	FastFree uint64 `json:"fast_free"`
	// Migrations and Lost are deltas/totals this round: migrations
	// performed since the previous sample, VMs lost so far.
	Migrations int `json:"migrations"`
	Lost       int `json:"lost"`
	// Moves (promoted + demoted + VMM-migrated pages), BalloonIn and
	// Refused (balloon pages granted and refused) are fleet-wide deltas
	// since the previous sample, departed VMs included, so fault windows
	// and lifecycle events visibly perturb the series.
	Moves     uint64 `json:"moves"`
	BalloonIn uint64 `json:"balloon_in"`
	Refused   uint64 `json:"refused"`
	// Shares holds resident VMs' DRF dominant shares in id order (empty
	// unless the share policy is drf).
	Shares []VMShare `json:"shares,omitempty"`
}

// VMShare is one VM's dominant share in a timeline sample.
type VMShare struct {
	ID    vmm.VMID `json:"id"`
	Share float64  `json:"share"`
}

// HostRun is one host's fleet outcome.
type HostRun struct {
	ID     int  `json:"id"`
	Failed bool `json:"failed"`
	// Epochs is the host's completed epoch count (idle epochs are not
	// counted, so hosts that emptied early show fewer).
	Epochs int `json:"epochs"`
	// VMs counts VMs resident at the end (running, finished, or
	// stranded).
	VMs int `json:"vms"`
	// Sys is the host's final system; tests use it for invariant and
	// share inspection.
	Sys *core.System `json:"-"`
	// Obs is the host's observability child handle (nil when the fleet
	// ran without one).
	Obs *obs.Obs `json:"-"`
}

// Result is a completed fleet run.
type Result struct {
	Name      string `json:"name"`
	Seed      uint64 `json:"seed"`
	Hosts     int    `json:"hosts"`
	Rounds    int    `json:"rounds"`
	Placement string `json:"placement"`
	// VMs holds every VM that ever ran, in boot order.
	VMs []VMRun `json:"vms"`
	// HostRuns holds every host in id order.
	HostRuns   []HostRun         `json:"host_runs"`
	Migrations []MigrationRecord `json:"migrations"`
	Timeline   []RoundSample     `json:"timeline"`
}

// AddResults accumulates src into dst field by field — every counter,
// duration, and per-tier array summed. It walks the struct
// reflectively so a VMResult field added later is summed (not silently
// dropped) without touching this code.
func AddResults(dst *core.VMResult, src *core.VMResult) {
	addValue(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem())
}

func addValue(dst, src reflect.Value) {
	switch dst.Kind() {
	case reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			addValue(dst.Field(i), src.Field(i))
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < dst.Len(); i++ {
			addValue(dst.Index(i), src.Index(i))
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		dst.SetInt(dst.Int() + src.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		dst.SetUint(dst.Uint() + src.Uint())
	case reflect.Float32, reflect.Float64:
		dst.SetFloat(dst.Float() + src.Float())
	default:
		panic(fmt.Sprintf("fleet: VMResult field kind %v is not summable", dst.Kind()))
	}
}

// Table renders the per-VM outcomes (callers with thousands of VMs
// want AppTable instead).
func (r *Result) Table() *metrics.Table {
	t := metrics.NewTable("fleet "+r.Name,
		"vm", "app", "mode", "boot", "shutdown", "host", "moves", "done", "lost",
		"epochs", "runtime-s", "promotions", "demotions", "vmm-moves",
		"balloon-in", "refused", "stalled")
	for i := range r.VMs {
		v := &r.VMs[i]
		shutdown := "-"
		if v.ShutdownRound >= 0 {
			shutdown = fmt.Sprintf("%d", v.ShutdownRound)
		}
		t.AddRow(int(v.ID), v.App, v.Mode, v.BootRound, shutdown, v.Host,
			v.Migrations, v.Completed, v.Lost, v.Res.Epochs,
			fmt.Sprintf("%.3f", v.Res.SimTime.Seconds()),
			v.Res.Promotions, v.Res.Demotions, v.Res.VMMMigrations,
			v.Res.BalloonPagesIn, v.Res.BalloonRefusedPages, v.Res.MigrationStalledPasses)
	}
	return t
}

// AppTable aggregates VM outcomes per (app, mode) — the useful view at
// datacenter scale.
func (r *Result) AppTable() *metrics.Table {
	type key struct{ app, mode string }
	type agg struct {
		n, completed, lost, moves int
		res                       core.VMResult
	}
	aggs := make(map[key]*agg)
	var order []key
	for i := range r.VMs {
		v := &r.VMs[i]
		k := key{v.App, v.Mode}
		a, ok := aggs[k]
		if !ok {
			a = &agg{}
			aggs[k] = a
			order = append(order, k)
		}
		a.n++
		if v.Completed {
			a.completed++
		}
		if v.Lost {
			a.lost++
		}
		a.moves += v.Migrations
		AddResults(&a.res, &v.Res)
	}
	t := metrics.NewTable("fleet "+r.Name+" by app",
		"app", "mode", "vms", "completed", "lost", "migrations",
		"epochs", "runtime-s", "promotions", "demotions", "vmm-moves")
	for _, k := range order {
		a := aggs[k]
		t.AddRow(k.app, k.mode, a.n, a.completed, a.lost, a.moves,
			a.res.Epochs, fmt.Sprintf("%.3f", a.res.SimTime.Seconds()),
			a.res.Promotions, a.res.Demotions, a.res.VMMMigrations)
	}
	return t
}

// MigrationTable renders the migration log.
func (r *Result) MigrationTable() *metrics.Table {
	t := metrics.NewTable("migrations "+r.Name,
		"round", "vm", "from", "to", "frames", "evacuation", "heat-preserved")
	for i := range r.Migrations {
		m := &r.Migrations[i]
		t.AddRow(m.Round, int(m.VM), m.From, m.To, m.Frames, m.Evacuation, m.HeatPreserved)
	}
	return t
}

// TimelineTable renders the sampled fleet timeline.
func (r *Result) TimelineTable() *metrics.Table {
	t := metrics.NewTable("timeline "+r.Name,
		"round", "hosts", "resident", "running", "fast-free", "migrations", "lost",
		"moves", "balloon-in", "refused", "drf-shares")
	for i := range r.Timeline {
		s := &r.Timeline[i]
		shares := "-"
		if len(s.Shares) > 0 {
			var b strings.Builder
			for j, sh := range s.Shares {
				if j > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%d:%.3f", sh.ID, sh.Share)
			}
			shares = b.String()
		}
		t.AddRow(s.Round, s.LiveHosts, s.ResidentVMs, s.RunningVMs,
			s.FastFree, s.Migrations, s.Lost, s.Moves, s.BalloonIn, s.Refused, shares)
	}
	return t
}
