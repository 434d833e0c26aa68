package core

import (
	"strings"
	"testing"

	"heteroos/internal/obs"
	"heteroos/internal/policy"
	"heteroos/internal/workload"
)

// traceRun executes one traced GraphChi run under mode and returns the
// finished system.
func traceRun(t *testing.T, mode policy.Mode) *System {
	t.Helper()
	w, err := workload.ByName("GraphChi", workload.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		FastFrames: fast2G + slow8G + 4096,
		SlowFrames: slow8G + 4096,
		Seed:       1,
		Trace:      true,
		VMs: []VMConfig{{
			ID: 1, Mode: mode, Workload: w,
			FastPages: fast2G, SlowPages: slow8G,
		}},
	}
	_, sys, err := RunSingle(cfg)
	if err != nil {
		t.Fatalf("%s: %v", mode.Name, err)
	}
	return sys
}

// TestEpochTraceConsistency asserts the per-epoch trace series is
// internally consistent with the run's final totals: summed per-epoch
// Promotions/Demotions/misses equal VMResult's, every FastFreePct is a
// percentage, cost components sum to the epoch total, and the series
// covers exactly the epochs the result reports.
func TestEpochTraceConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	modes := []policy.Mode{
		policy.VMMExclusive(),           // transparent
		policy.HeteroOSCoordinated(),    // coordinated
		policy.HeteroOSCoordinatedNVM(), // write-aware
	}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.Name, func(t *testing.T) {
			t.Parallel()
			sys := traceRun(t, mode)
			inst := sys.VMs[0]
			res := &inst.Res
			log := inst.TraceLog
			if len(log) != res.Epochs {
				t.Fatalf("trace has %d epochs, result ran %d", len(log), res.Epochs)
			}
			var promos, demos, fastMiss, slowMiss uint64
			for i, e := range log {
				if e.Epoch != i+1 {
					t.Fatalf("epoch %d recorded as %d", i+1, e.Epoch)
				}
				if sum := e.CPU + e.MemFast + e.MemSlow + e.OS; sum != e.Total {
					t.Fatalf("epoch %d: components %v != total %v", e.Epoch, sum, e.Total)
				}
				if e.FastFreePct < 0 || e.FastFreePct > 100 {
					t.Fatalf("epoch %d: FastFreePct %v out of range", e.Epoch, e.FastFreePct)
				}
				promos += e.Promotions
				demos += e.Demotions
				fastMiss += e.FastMisses
				slowMiss += e.SlowMisses
			}
			if promos != res.Promotions {
				t.Errorf("summed trace promotions %d != result %d", promos, res.Promotions)
			}
			if demos != res.Demotions {
				t.Errorf("summed trace demotions %d != result %d", demos, res.Demotions)
			}
			if fastMiss != res.Misses[0] || slowMiss != res.Misses[1] {
				t.Errorf("summed trace misses fast=%d slow=%d != result fast=%d slow=%d",
					fastMiss, slowMiss, res.Misses[0], res.Misses[1])
			}
			// Migration totals must show up under the mode responsible
			// for them: the coordinated guests execute guest migrations,
			// the transparent baseline only VMM ones.
			if mode.Migration == policy.MigrateCoordinated && promos == 0 {
				t.Errorf("%s recorded no promotions in trace", mode.Name)
			}
		})
	}
}

// TestTraceTableRendering pins the TraceTable projection of the series.
func TestTraceTableRendering(t *testing.T) {
	log := []EpochTrace{
		{Epoch: 1, Total: 3_000_000, CPU: 1_000_000, MemFast: 500_000,
			MemSlow: 1_000_000, OS: 500_000, FastMisses: 10, SlowMisses: 20,
			Demotions: 1, Promotions: 2, FastFreePct: 33.5},
	}
	tbl := TraceTable("demo", log)
	if tbl.Rows() != 1 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	var b strings.Builder
	tbl.RenderCSV(&b)
	want := "1,3.00,1.00,0.50,1.00,0.50,10,20,1,2,33.50"
	if !strings.Contains(b.String(), want) {
		t.Fatalf("rendered CSV missing %q:\n%s", want, b.String())
	}
}

// TestCoordinatedPassPhases: with the epoch profiler on, the coordinated
// pass books its scan step under the scan phase and the rest of the
// pass under migrate, once each per pass; ranking stays nested inside
// migrate.
func TestCoordinatedPassPhases(t *testing.T) {
	w, err := workload.ByName("GraphChi", workload.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := obs.New()
	cfg := Config{
		FastFrames:    fast2G + slow8G + 4096,
		SlowFrames:    slow8G + 4096,
		Seed:          1,
		MaxEpochs:     200,
		Obs:           h,
		ProfileEpochs: true,
		VMs: []VMConfig{{
			ID: 1, Mode: policy.HeteroOSCoordinated(), Workload: w,
			FastPages: fast2G, SlowPages: slow8G,
		}},
	}
	res, _, err := RunSingle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := h.Metrics.Snapshot().Rollup()
	wall := func(ph string) *obs.MetricValue {
		v := snap.Find("phase." + ph + ".wall_ns")
		if v == nil {
			t.Fatalf("no %s wall histogram", ph)
		}
		return v
	}
	scan, migrate, rank := wall("scan"), wall("migrate"), wall("rank")
	if passes := float64(res.ScanPasses); passes == 0 || scan.Value != passes || migrate.Value != passes {
		t.Fatalf("scan passes %v: scan wall observed %v times, migrate %v", passes, scan.Value, migrate.Value)
	}
	if scan.Sum <= 0 || migrate.Sum <= 0 {
		t.Fatalf("scan wall %v ns, migrate wall %v ns, want both positive", scan.Sum, migrate.Sum)
	}
	if rank.Sum > migrate.Sum {
		t.Fatalf("rank wall %v ns exceeds the migrate wall %v ns it nests in", rank.Sum, migrate.Sum)
	}
}
