package exp

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"heteroos/internal/memsim"
	"heteroos/internal/metrics"
	"heteroos/internal/obs"
	"heteroos/internal/runner"
)

// gainTable runs the Figure 9 shape (quick apps, two capacity ratios)
// under the given backend builder; nil means the default path (no
// NewBackend hook, core builds analytic).
func gainTable(t *testing.T, build memsim.Builder) *metrics.Table {
	t.Helper()
	o := Options{Quick: true, Seed: 1}
	if build != nil {
		o.NewBackend = func(string, uint64) memsim.Builder { return build }
	}
	res, err := gainSweep(context.Background(), o, "figure9", "backend-shape", figure9Modes(), []int{2, 8})
	if err != nil {
		t.Fatalf("gainSweep: %v", err)
	}
	return res.Table
}

// The default backend path (Config.Backend nil) must be byte-identical
// to explicitly selecting analytic through the NewBackend hook.
func TestGainSweepDefaultBackendIsAnalytic(t *testing.T) {
	def := gainTable(t, nil)
	ana := gainTable(t, memsim.AnalyticBackend)
	if def.String() != ana.String() {
		t.Fatalf("explicit analytic differs from default:\ndefault:\n%s\nanalytic:\n%s", def, ana)
	}
}

// csv renders a figure's table as CSV (no wall-clock lines).
func csv(t *testing.T, fig func(context.Context, Options) (*Result, error), o Options) string {
	t.Helper()
	res, err := fig(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	res.Table.RenderCSV(&b)
	return b.String()
}

// A sweep's output is a pure function of its cells' configs: the quick
// Figure 9 renders the same CSV at one worker and at four.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	o := quick()
	o.Workers = 1
	serial := csv(t, Figure9, o)
	o.Workers = 4
	if parallel := csv(t, Figure9, o); parallel != serial {
		t.Fatalf("workers=4 differs from workers=1:\n%s\nvs\n%s", parallel, serial)
	}
}

// The sweep calls NewObs and then NewBackend once per cell, on the
// submitting goroutine in submission order, with the cell's label and
// seed; every handle is tagged with its label, records its own cell's
// pricing and, with ProfileEpochs, the phase profile.
func TestSweepObsPropagation(t *testing.T) {
	type call struct {
		hook, label string
		seed        uint64
	}
	var calls []call // appended without a lock: the hooks run on the test goroutine
	var handles []*obs.Obs
	o := Options{Quick: true, Seed: 3, Workers: 2, ProfileEpochs: true,
		NewObs: func(label string, seed uint64) *obs.Obs {
			calls = append(calls, call{"obs", label, seed})
			h := obs.New()
			handles = append(handles, h)
			return h
		},
		NewBackend: func(label string, seed uint64) memsim.Builder {
			calls = append(calls, call{"backend", label, seed})
			return memsim.AnalyticBackend
		},
	}
	dens := []int{8}
	if _, err := gainSweep(context.Background(), o, "figure9", "obs", figure9Modes(), dens); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, app := range evalApps(o) {
		want = append(want, app+"/SlowMem-only", app+"/FastMem-only")
		for range dens {
			for _, m := range figure9Modes() {
				want = append(want, app+"/"+m.Name)
			}
		}
	}
	if len(calls) != 2*len(want) || len(handles) != len(want) {
		t.Fatalf("%d hook calls and %d handles for %d cells", len(calls), len(handles), len(want))
	}
	for i, label := range want {
		for j, hook := range []string{"obs", "backend"} {
			if c := calls[2*i+j]; c != (call{hook, label, 3}) {
				t.Errorf("call %d = %+v, want %s hook for %q with seed 3", 2*i+j, c, hook, label)
			}
		}
		h := handles[i]
		if h.RunTag() != label {
			t.Errorf("cell %d run tag %q, want %q", i, h.RunTag(), label)
		}
		snap := h.Metrics.Snapshot()
		if v := snap.Find("memsim.charges"); v == nil || v.Value == 0 {
			t.Errorf("cell %q recorded no memsim.charges", label)
		}
		if v := snap.Rollup().Find("phase.workload.wall_ns"); v == nil || v.Value == 0 {
			t.Errorf("cell %q recorded no phase profile", label)
		}
	}
}

// chargeProbe counts every Charge across a sweep and panics in the one
// cell it poisons. Once closed is set (the figure has returned), any
// further Charge is late.
type chargeProbe struct {
	poison        string
	closed        atomic.Bool
	charges, late atomic.Int64
}

type probedBackend struct {
	memsim.Backend
	p      *chargeProbe
	poison bool
}

func (b *probedBackend) Charge(c memsim.EpochCharge) memsim.EpochCost {
	if b.poison {
		panic("poisoned Charge")
	}
	b.p.charges.Add(1)
	if b.p.closed.Load() {
		b.p.late.Add(1)
	}
	return b.Backend.Charge(c)
}

func (p *chargeProbe) newBackend(label string, _ uint64) memsim.Builder {
	return func(m *memsim.Machine, opts ...memsim.Option) memsim.Backend {
		return &probedBackend{memsim.AnalyticBackend(m, opts...), p, label == p.poison}
	}
}

// A figure whose cell fails returns that cell's error and leaves no
// other cell simulating: nothing prices an epoch after it returns.
func TestSweepFailedCellStopsOthers(t *testing.T) {
	p := &chargeProbe{poison: "GraphChi/SlowMem-only"}
	o := quick()
	o.Workers = 2
	o.NewBackend = p.newBackend
	_, err := Figure9(context.Background(), o)
	p.closed.Store(true)
	if !errors.Is(err, runner.ErrJobPanicked) || !strings.Contains(err.Error(), p.poison) {
		t.Fatalf("Figure9 error = %v, want the poisoned cell's panic", err)
	}
	// An absence has no event to wait on: give a cell that outlived the
	// figure (an epoch takes about half a millisecond) time to price one.
	time.Sleep(100 * time.Millisecond)
	if n := p.late.Load(); n != 0 {
		t.Fatalf("%d epochs priced after Figure9 returned (%d in all)", n, p.charges.Load())
	}
}
