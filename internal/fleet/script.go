// Package fleet is the simulated-datacenter layer: a Cluster of N
// hosts — each a full core.System with its own machine, VMM, and VM
// population — advanced in lock-step rounds through the runner pool,
// with cross-host VM live migration (core.EmigrateVM/ImmigrateVM),
// pluggable placement policies, and fleet-wide metric rollups through
// the obs snapshot algebra.
//
// A fleet run is scripted: a JSON Script names the host shape, the
// round structure, the placement policy, and a timed event list (VM
// boots and shutdowns, demand surges, injected faults, host failures
// with mass evacuation, checkpoints). It is the simulator's only script
// engine: a single-host datacenter scenario is a one-host fleet with
// one epoch per round (see the bundled churn.json and degrade.json).
//
// Determinism is a hard contract: the result — and, with an
// observability handle attached, the event stream — is a pure function
// of (script, seed) and is byte-identical regardless of runner worker
// count. Hosts step in parallel but share no state, and every
// cross-host decision (event application, placement, migration)
// happens serially between rounds.
package fleet

import (
	"bytes"
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path"
	"sort"

	"heteroos/internal/core"
	"heteroos/internal/memsim"
	"heteroos/internal/policy"
	"heteroos/internal/workload"
)

// Event kinds accepted by Script.Events.
const (
	// KindBoot places and boots Boot.Count new VMs.
	KindBoot = "boot"
	// KindShutdown retires VMs: an explicit resident VM id, or the
	// Count lowest-id resident VMs.
	KindShutdown = "shutdown"
	// KindSurge multiplies VM demand by Factor for Duration rounds
	// (0 = rest of the run): an explicit resident VM id, or the Count
	// lowest-id running (unfinished) VMs.
	KindSurge = "surge"
	// KindBalloonRefusal makes the VMM refuse the target VMs' populate
	// requests for Duration rounds; targets as for surge.
	KindBalloonRefusal = "balloon-refusal"
	// KindMigrationStall stalls the target VMs' migration engines for
	// Duration rounds (passes skip under bounded retry/backoff);
	// targets as for surge.
	KindMigrationStall = "migration-stall"
	// KindThrottleShift swaps host Host's SlowMem tier spec to Throttle
	// mid-run (the device degrading under the experiment's feet).
	KindThrottleShift = "throttle-shift"
	// KindHostFail fails host Host: the host stops stepping forever and
	// its running VMs are mass-evacuated through live migration to
	// wherever the placement policy finds room; VMs that fit nowhere
	// are recorded as lost.
	KindHostFail = "host-fail"
	// KindCheckpoint writes a cluster checkpoint to Path at that point
	// of the round, before the hosts step. It never perturbs the run.
	KindCheckpoint = "checkpoint"
)

// HostDesc is the (uniform) per-host machine shape.
type HostDesc struct {
	FastFrames uint64 `json:"fast_frames"`
	SlowFrames uint64 `json:"slow_frames"`
	// Share selects the VMM share policy on every host (default
	// static).
	Share string `json:"share,omitempty"`
	// SlowThrottle, when set, is the initial SlowMem throttle point
	// (default: the paper's SlowMem spec).
	SlowThrottle *memsim.Throttle `json:"slow_throttle,omitempty"`
}

// VMGroup declares Count identical VMs. Fleet VM ids are implicit and
// sequential: groups are numbered 1..N in declaration order — the
// round-0 groups in Script.VMs first, then each boot event's group in
// script order — so event targets reference stable ids.
type VMGroup struct {
	App  string `json:"app"`
	Mode string `json:"mode"`
	// Count is the number of VMs in the group (default 1).
	Count int `json:"count,omitempty"`
	// FastPages / SlowPages bound each VM's per-tier span (scaled
	// pages).
	FastPages uint64 `json:"fast_pages"`
	SlowPages uint64 `json:"slow_pages"`
}

func (g *VMGroup) count() int {
	if g.Count <= 0 {
		return 1
	}
	return g.Count
}

// Event is one scripted fleet action, applied at the start of round At
// before any host steps.
type Event struct {
	At   int    `json:"at"`
	Kind string `json:"kind"`
	// Boot describes the VMs a boot event adds.
	Boot *VMGroup `json:"boot,omitempty"`
	// VM targets one VM by id (shutdown, surge, and the fault windows).
	VM int32 `json:"vm,omitempty"`
	// Count instead targets the Count lowest-id eligible VMs.
	Count int `json:"count,omitempty"`
	// Host targets one host by index (host-fail, throttle-shift).
	Host int `json:"host,omitempty"`
	// Factor is the surge demand multiplier (default 2).
	Factor int `json:"factor,omitempty"`
	// Duration is the surge or fault window in rounds; 0 means the rest
	// of the run.
	Duration int `json:"duration,omitempty"`
	// Throttle is the new SlowMem point of a throttle-shift.
	Throttle *memsim.Throttle `json:"throttle,omitempty"`
	// Path is a checkpoint event's destination file.
	Path string `json:"path,omitempty"`
}

// windowed reports whether the event opens a window that a clear action
// closes Duration rounds later.
func (e *Event) windowed() bool {
	switch e.Kind {
	case KindSurge, KindBalloonRefusal, KindMigrationStall:
		return true
	}
	return false
}

// Script is a JSON-loadable fleet run description.
type Script struct {
	Name string `json:"name"`
	Seed uint64 `json:"seed"`
	// Hosts is the cluster size.
	Hosts int `json:"hosts"`
	// Rounds is the number of lock-step rounds; each round applies the
	// due events, rebalances, migrates, then steps every live host
	// RoundEpochs epochs in parallel.
	Rounds int `json:"rounds"`
	// RoundEpochs is the epochs per host per round.
	RoundEpochs int `json:"round_epochs"`
	// Scale is the workload capacity divisor shared by every VM
	// (default workload.DefaultScale). Large fleets raise it so each
	// VM's page population shrinks while every capacity ratio is
	// preserved.
	Scale uint64 `json:"scale,omitempty"`
	// Host is the uniform host machine shape.
	Host HostDesc `json:"host"`
	// Placement names the placement policy (default first-fit).
	Placement string `json:"placement,omitempty"`
	// VMs are the round-0 boot groups.
	VMs []VMGroup `json:"vms,omitempty"`
	// Events is the timed script; rounds fire in order, same-round
	// events in script order.
	Events []Event `json:"events,omitempty"`
}

func (sc *Script) share() string {
	if sc.Host.Share == "" {
		return string(core.ShareStatic)
	}
	return sc.Host.Share
}

func (sc *Script) placement() string {
	if sc.Placement == "" {
		return PlacementFirstFit
	}
	return sc.Placement
}

func (sc *Script) scale() uint64 {
	if sc.Scale == 0 {
		return workload.DefaultScale
	}
	return sc.Scale
}

// groups lists every VM group in id-assignment order: round-0 groups,
// then boot events in script order.
func (sc *Script) groups() []*VMGroup {
	var gs []*VMGroup
	for i := range sc.VMs {
		gs = append(gs, &sc.VMs[i])
	}
	for i := range sc.Events {
		if sc.Events[i].Kind == KindBoot && sc.Events[i].Boot != nil {
			gs = append(gs, sc.Events[i].Boot)
		}
	}
	return gs
}

// TotalVMs counts the VMs the script ever boots.
func (sc *Script) TotalVMs() int {
	n := 0
	for _, g := range sc.groups() {
		n += g.count()
	}
	return n
}

func (sc *Script) validateGroup(g *VMGroup) error {
	if _, err := policy.ByName(g.Mode); err != nil {
		return err
	}
	if _, err := workload.ByName(g.App, workload.Config{Seed: 1, Scale: sc.scale()}); err != nil {
		return err
	}
	if g.FastPages+g.SlowPages == 0 {
		return fmt.Errorf("VM group %q/%q has a zero-page span", g.App, g.Mode)
	}
	if g.FastPages > sc.Host.FastFrames || g.SlowPages > sc.Host.SlowFrames {
		return fmt.Errorf("VM group %q span (%d fast, %d slow) exceeds the host shape (%d fast, %d slow)",
			g.App, g.FastPages, g.SlowPages, sc.Host.FastFrames, sc.Host.SlowFrames)
	}
	if g.Count < 0 {
		return fmt.Errorf("VM group %q has negative count %d", g.App, g.Count)
	}
	return nil
}

// Validate checks the script for shape errors: unknown names, spans
// that cannot fit any host, events out of round range or with missing
// targets, and a host failed twice.
func (sc *Script) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("fleet script %q: %s", sc.Name, fmt.Sprintf(format, args...))
	}
	if sc.Name == "" {
		return errors.New("fleet script: missing name")
	}
	if sc.Hosts < 1 {
		return fail("needs at least 1 host, have %d", sc.Hosts)
	}
	if sc.Rounds < 1 || sc.RoundEpochs < 1 {
		return fail("needs rounds >= 1 and round_epochs >= 1 (have %d, %d)", sc.Rounds, sc.RoundEpochs)
	}
	if sc.Host.FastFrames == 0 || sc.Host.SlowFrames == 0 {
		return fail("host shape needs fast_frames and slow_frames")
	}
	switch core.ShareKind(sc.share()) {
	case core.ShareStatic, core.ShareMaxMin, core.ShareDRF:
	default:
		return fail("unknown share policy %q", sc.Host.Share)
	}
	if _, err := PlacementByName(sc.placement()); err != nil {
		return fail("%v", err)
	}
	if t := sc.Host.SlowThrottle; t != nil && (t.L < 1 || t.B < 1) {
		return fail("slow_throttle %v needs factors >= 1", *t)
	}
	for _, g := range sc.groups() {
		if err := sc.validateGroup(g); err != nil {
			return fail("%v", err)
		}
	}
	maxID := int32(sc.TotalVMs())
	failed := make(map[int]bool)
	for i := range sc.Events {
		e := &sc.Events[i]
		if e.At < 0 || e.At >= sc.Rounds {
			return fail("event %d fires at round %d, outside [0, %d)", i, e.At, sc.Rounds)
		}
		switch e.Kind {
		case KindBoot:
			if e.Boot == nil {
				return fail("boot event %d has no VM group", i)
			}
		case KindShutdown, KindSurge, KindBalloonRefusal, KindMigrationStall:
			if (e.VM > 0) == (e.Count > 0) {
				return fail("%s event %d needs exactly one of vm or count", e.Kind, i)
			}
			if e.VM > maxID {
				return fail("%s event %d targets VM %d; the script only boots %d", e.Kind, i, e.VM, maxID)
			}
			if e.Factor < 0 || e.Duration < 0 {
				return fail("%s event %d has negative factor or duration", e.Kind, i)
			}
		case KindHostFail, KindThrottleShift:
			if e.Host < 0 || e.Host >= sc.Hosts {
				return fail("%s event %d targets host %d of %d", e.Kind, i, e.Host, sc.Hosts)
			}
			switch {
			case e.Kind == KindThrottleShift:
				if e.Throttle == nil || e.Throttle.L < 1 || e.Throttle.B < 1 {
					return fail("throttle-shift event %d needs a throttle with factors >= 1", i)
				}
			case failed[e.Host]:
				return fail("host-fail event %d fails host %d a second time", i, e.Host)
			default:
				failed[e.Host] = true
			}
		case KindCheckpoint:
			if e.Path == "" {
				return fail("checkpoint event %d has no path", i)
			}
		default:
			return fail("event %d has unknown kind %q", i, e.Kind)
		}
	}
	return nil
}

//go:embed scripts/*.json
var bundledFS embed.FS

// Bundled lists the embedded fleet script file names.
func Bundled() []string {
	entries, err := bundledFS.ReadDir("scripts")
	if err != nil {
		return nil
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// Parse decodes and validates a JSON fleet script. Unknown fields are
// errors: a misspelled key would otherwise be dropped and silently
// change the run.
func Parse(data []byte) (*Script, error) {
	var sc Script
	if err := decodeStrict(data, &sc); err != nil {
		return nil, fmt.Errorf("fleet: parse: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// decodeStrict is json.Unmarshal that also rejects fields v does not
// declare.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// LoadBundled loads an embedded fleet script by file name (e.g.
// "fleet-churn.json").
func LoadBundled(name string) (*Script, error) {
	data, err := bundledFS.ReadFile(path.Join("scripts", name))
	if err != nil {
		return nil, fmt.Errorf("fleet: no bundled script %q (have %v)", name, Bundled())
	}
	return Parse(data)
}

// LoadFile loads a fleet script from disk; a missing path falls back
// to the bundled script of the same base name, so the shipped scripts
// resolve from any directory.
func LoadFile(p string) (*Script, error) {
	data, err := os.ReadFile(p)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			if sc, berr := LoadBundled(path.Base(p)); berr == nil {
				return sc, nil
			}
		}
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return Parse(data)
}
