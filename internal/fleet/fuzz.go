// Script fuzzing: a seeded generator of random-but-valid fleet scripts
// (1–3 hosts, every event kind, host failures included), a strict
// execution harness that checks every host's invariants after every
// script event and every round, and a delta-debugging shrinker that
// reduces failing cases to minimal, replayable reproductions.
//
// The property under test is the engine's robustness contract: no
// valid script — any mix of arrivals, departures, surges, fault
// windows, throttle shifts, and host failures with evacuation — may
// ever drive a host into a state where core.CheckInvariants fails or
// the stack panics. Benign runtime rejections (a boot no host can
// admit, an event targeting an already-departed VM) terminate a run
// without falsifying the property.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"heteroos/internal/memsim"
	"heteroos/internal/runner"
	"heteroos/internal/sim"
)

// ErrInvariant tags CheckScript failures: an invariant violation or a
// panic, as opposed to a benign runtime rejection.
var ErrInvariant = errors.New("invariant violation")

// DefectStealFrame allocates a FastMem frame on host 0 under an owner
// no VM answers to, desynchronising the machine's frame accounting from
// the VMM's grant books — the canonical seeded defect the fuzz harness
// must catch and the shrinker must preserve.
const DefectStealFrame = "steal-frame"

// Defect is a scripted state corruption injected mid-run. Defects
// exist to test the fuzzing harness end-to-end: a committed repro with
// a defect proves detection, shrinking, and replay all work against a
// real failure, without leaving a planted bug in the product code.
type Defect struct {
	Kind string `json:"kind"`
	// At is the round after whose step the corruption applies.
	At int `json:"at"`
}

// Repro is a self-contained failing fuzz case: the seed and script
// that failed, the optional injected defect, and the failure text.
// Repros serialize to JSON under testdata/fuzz/repros/ and replay with
// CheckScript.
type Repro struct {
	Seed   uint64  `json:"seed"`
	Script *Script `json:"script"`
	Defect *Defect `json:"defect,omitempty"`
	Err    string  `json:"error,omitempty"`
}

// Generator pools. Every value a generated script draws is valid by
// construction — Validate-clean scripts only; runtime admission is the
// engine's problem, not the generator's.
var (
	fuzzApps       = []string{"memlat", "stream", "writeheavy"}
	fuzzModes      = []string{"HeteroOS-coordinated", "HeteroOS-coordinated-NVM", "VMM-exclusive", "NUMA-preferred"}
	fuzzShares     = []string{"drf", "max-min", "static"}
	fuzzPlacements = []string{PlacementFirstFit, PlacementPressurePack, PlacementDRFRebalance}
)

func fuzzVM(rng *sim.RNG) VMGroup {
	return VMGroup{
		App:  fuzzApps[rng.Intn(len(fuzzApps))],
		Mode: fuzzModes[rng.Intn(len(fuzzModes))],
		// Small spans relative to the generated hosts, so most boots
		// are admissible and runs exercise rounds rather than rejections.
		FastPages: uint64(64 << rng.Intn(3)),
		SlowPages: uint64(256 << rng.Intn(3)),
	}
}

// Generate builds a random script from seed: 1–3 hosts, host shape,
// share policy, placement, 1–3 round-0 VMs, and up to 8
// script events drawn from every kind but checkpoint, with in-range
// parameters. Events are emitted in round order, so VM ids follow
// declaration order. The result is a pure function of seed and always
// passes Validate.
func Generate(seed uint64) *Script {
	rng := sim.NewRNG(seed ^ 0x5eed5eedf0f5a9)
	fast := uint64(1024 + 512*rng.Intn(5))
	sc := &Script{
		Name: fmt.Sprintf("fuzz-%d", seed), Seed: seed,
		Hosts:       1 + rng.Intn(3),
		Rounds:      16 + rng.Intn(25),
		RoundEpochs: 1,
		Host: HostDesc{
			FastFrames: fast, SlowFrames: fast * uint64(4+rng.Intn(5)),
			Share: fuzzShares[rng.Intn(len(fuzzShares))],
		},
		Placement: fuzzPlacements[rng.Intn(len(fuzzPlacements))],
	}
	boot := map[int32]int{}  // id -> boot round
	gone := map[int32]bool{} // ids with a shutdown already scripted
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		sc.VMs = append(sc.VMs, fuzzVM(rng))
		boot[int32(i+1)] = 0
	}
	// alive picks a random VM booted before `at` with no scripted
	// shutdown.
	alive := func(at int) (int32, bool) {
		var ids []int32
		for id := int32(1); int(id) <= len(boot); id++ {
			if boot[id] < at && !gone[id] {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			return 0, false
		}
		return ids[rng.Intn(len(ids))], true
	}
	ats := make([]int, rng.Intn(9))
	for i := range ats {
		ats[i] = 1 + rng.Intn(sc.Rounds-1)
	}
	sort.Ints(ats)
	failed := 0
	for _, at := range ats {
		e := Event{At: at}
		switch k := rng.Intn(7); k {
		case 0:
			g := fuzzVM(rng)
			e.Kind, e.Boot = KindBoot, &g
			boot[int32(len(boot)+1)] = at
		case 1, 2, 3, 4:
			id, ok := alive(at)
			if !ok {
				continue
			}
			e.VM = id
			switch k {
			case 1:
				e.Kind = KindShutdown
				gone[id] = true
			case 2:
				e.Kind, e.Factor, e.Duration = KindSurge, 2+rng.Intn(3), 1+rng.Intn(8)
			case 3:
				e.Kind, e.Duration = KindMigrationStall, 1+rng.Intn(8)
			case 4:
				e.Kind, e.Duration = KindBalloonRefusal, 1+rng.Intn(8)
			}
		case 5:
			th := memsim.SensitivitySweep[rng.Intn(len(memsim.SensitivitySweep))]
			e.Kind, e.Host, e.Throttle = KindThrottleShift, rng.Intn(sc.Hosts), &th
		case 6:
			// Fail hosts in order, always leaving one standing.
			if failed == sc.Hosts-1 {
				continue
			}
			e.Kind, e.Host = KindHostFail, failed
			failed++
		}
		sc.Events = append(sc.Events, e)
	}
	return sc
}

// CheckScript executes sc under the fuzzing property: every host's
// invariants are verified after every script event and every round,
// and panics anywhere in the stack are converted to failures. A nil
// return means the property held; ErrInvariant-wrapped errors mean it
// did not. Benign runtime rejections return nil: the generator ranges
// over scripts the engine may legitimately refuse. When defect is
// non-nil, the corruption applies after the step of round defect.At,
// so the harness itself can be tested against a known failure.
func CheckScript(ctx context.Context, sc *Script, defect *Defect) (failure error) {
	defer func() {
		if r := recover(); r != nil {
			failure = fmt.Errorf("%w: panic: %v", ErrInvariant, r)
		}
	}()
	c, err := NewCluster(sc, Options{Workers: 1})
	if err != nil {
		return nil
	}
	injected := false
	c.probe = func(stage string) error {
		if defect != nil && !injected && stage == "round" && c.round >= defect.At {
			injected = true
			if err := applyDefect(c, defect); err != nil {
				return fmt.Errorf("%w: injecting %s: %v", ErrInvariant, defect.Kind, err)
			}
		}
		for _, h := range c.hosts {
			if err := h.sys.CheckInvariants(); err != nil {
				return fmt.Errorf("%w on host %d: %v", ErrInvariant, h.id, err)
			}
		}
		return nil
	}
	_, err = c.Finish(ctx)
	switch {
	case errors.Is(err, ErrInvariant):
		return err
	case errors.Is(err, runner.ErrJobPanicked):
		// A panic inside a host's step, caught by the runner pool.
		return fmt.Errorf("%w: %v", ErrInvariant, err)
	}
	return nil
}

// applyDefect performs the scripted corruption against host 0.
func applyDefect(c *Cluster, d *Defect) error {
	switch d.Kind {
	case DefectStealFrame:
		_, err := c.hosts[0].sys.Machine.Alloc(memsim.FastMem, 1, memsim.Owner(9999))
		return err
	default:
		return fmt.Errorf("unknown defect kind %q", d.Kind)
	}
}

// cloneRepro deep-copies a repro through its JSON form (repros are
// fully serialisable by construction).
func cloneRepro(r *Repro) *Repro {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	var out Repro
	if err := json.Unmarshal(b, &out); err != nil {
		panic(err)
	}
	return &out
}

// stillFails reports whether the candidate reproduces an invariant
// failure; invalid candidates (shrinking can orphan event targets)
// never count. The failure text is refreshed on success.
func stillFails(ctx context.Context, cand *Repro) bool {
	if cand.Script.Validate() != nil {
		return false
	}
	err := CheckScript(ctx, cand.Script, cand.Defect)
	if err == nil {
		return false
	}
	cand.Err = err.Error()
	return true
}

// without returns the events drop does not match.
func without(events []Event, drop func(*Event) bool) []Event {
	var out []Event
	for i := range events {
		if !drop(&events[i]) {
			out = append(out, events[i])
		}
	}
	return out
}

// Shrink delta-debugs a failing repro to a local minimum: it drops
// script events, shortens the horizon, pulls the defect round and the
// event rounds and windows toward zero, drops hosts and round-0 VM
// groups, and halves VM spans, keeping each reduction only if the
// failure still reproduces. The input is not modified; the returned
// repro carries the (possibly reworded) failure text of the minimal
// case.
func Shrink(ctx context.Context, r *Repro) *Repro {
	cur := cloneRepro(r)
	if !stillFails(ctx, cur) {
		// Not a reproducible failure; nothing to shrink.
		return cur
	}
	// try adopts the candidate mut builds from cur if it still fails.
	try := func(mut func(*Script, *Repro) bool) bool {
		cand := cloneRepro(cur)
		if !mut(cand.Script, cand) || !stillFails(ctx, cand) {
			return false
		}
		cur = cand
		return true
	}
	// rounds cuts the horizon to n, dropping events past it.
	rounds := func(n int) func(*Script, *Repro) bool {
		return func(sc *Script, _ *Repro) bool {
			sc.Rounds = n
			sc.Events = without(sc.Events, func(e *Event) bool { return e.At >= n })
			return n >= 1
		}
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur.Script.Events); i++ {
			if try(func(sc *Script, _ *Repro) bool {
				sc.Events = append(sc.Events[:i:i], sc.Events[i+1:]...)
				return true
			}) {
				changed = true
				i--
			}
		}
		for try(rounds(cur.Script.Rounds / 2)) {
			changed = true
		}
		for try(rounds(cur.Script.Rounds - 1)) {
			changed = true
		}
		for cur.Defect != nil && cur.Defect.At > 0 && try(func(_ *Script, r *Repro) bool {
			r.Defect.At /= 2
			return true
		}) {
			changed = true
		}
		for i := range cur.Script.Events {
			for try(func(sc *Script, _ *Repro) bool {
				e := &sc.Events[i]
				switch {
				case e.At > 0:
					e.At /= 2
				case e.Duration > 1:
					e.Duration /= 2
				default:
					return false
				}
				return true
			}) {
				changed = true
			}
		}
		for try(func(sc *Script, _ *Repro) bool {
			sc.Hosts--
			sc.Events = without(sc.Events, func(e *Event) bool {
				return (e.Kind == KindHostFail || e.Kind == KindThrottleShift) && e.Host == sc.Hosts
			})
			return sc.Hosts >= 1
		}) {
			changed = true
		}
		for i := 0; i < len(cur.Script.VMs); i++ {
			if try(func(sc *Script, _ *Repro) bool {
				sc.VMs = append(sc.VMs[:i:i], sc.VMs[i+1:]...)
				return true
			}) {
				changed = true
				i--
			}
		}
		for i := range cur.Script.VMs {
			for try(func(sc *Script, _ *Repro) bool {
				g := &sc.VMs[i]
				g.FastPages, g.SlowPages = g.FastPages/2, g.SlowPages/2
				return g.FastPages+g.SlowPages >= 32
			}) {
				changed = true
			}
		}
	}
	return cur
}

// WriteFile saves the repro as indented JSON under dir, named after
// the script, and returns the path.
func (r *Repro) WriteFile(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, r.Script.Name+".json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadRepro reads a repro file written by WriteFile.
func LoadRepro(path string) (*Repro, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Repro
	if err := decodeStrict(b, &r); err != nil {
		return nil, fmt.Errorf("repro %s: %w", path, err)
	}
	if r.Script == nil {
		return nil, fmt.Errorf("repro %s: no script", path)
	}
	return &r, nil
}
