package core

import (
	"context"
	"testing"

	"heteroos/internal/policy"
	"heteroos/internal/workload"
)

// runApp runs one application under one mode at the given FastMem
// capacity ratio (fast = slow * num/den) and returns the result.
func runApp(t *testing.T, app string, mode policy.Mode, fastPages, slowPages uint64, seed uint64) *VMResult {
	t.Helper()
	w, err := workload.ByName(app, workload.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		FastFrames: fastPages + slowPages + 4096, // headroom for AllFastMem
		SlowFrames: slowPages + 4096,
		Seed:       seed,
		VMs: []VMConfig{{
			ID: 1, Mode: mode, Workload: w,
			FastPages: fastPages, SlowPages: slowPages,
		}},
	}
	sys, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s/%s: %v", app, mode.Name, err)
	}
	return &sys.VMs[0].Res
}

const (
	slow8G = 32768 // 8 GiB at scale 64
	fast4G = 16384
	fast2G = 8192
	fast1G = 4096
)

func TestSmokeShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	apps := []string{"GraphChi", "LevelDB", "Redis"}
	for _, app := range apps {
		slowOnly := runApp(t, app, policy.SlowMemOnly(), 0, slow8G, 1)
		fastOnly := runApp(t, app, policy.FastMemOnly(), fast4G, slow8G, 1)
		heapOD := runApp(t, app, policy.HeapOD(), fast4G, slow8G, 1)
		lru := runApp(t, app, policy.HeteroOSLRU(), fast4G, slow8G, 1)

		tS, tF, tH, tL := slowOnly.RuntimeSeconds(), fastOnly.RuntimeSeconds(),
			heapOD.RuntimeSeconds(), lru.RuntimeSeconds()
		t.Logf("%-10s slow=%.2fs fast=%.2fs heapOD=%.2fs heteroLRU=%.2fs slowdown=%.2fx heapOD-gain=%.0f%% lru-gain=%.0f%%",
			app, tS, tF, tH, tL, tS/tF, (tS/tH-1)*100, (tS/tL-1)*100)

		if !(tF < tH && tH <= tS*1.05) {
			t.Errorf("%s: ordering violated: fast=%.2f heapOD=%.2f slow=%.2f", app, tF, tH, tS)
		}
		// HeteroOS-LRU pays real migration costs; at the generous 1/2
		// capacity ratio its active machinery may not beat plain
		// on-demand placement, but it must stay in the same band.
		if !(tL <= tH*1.25) {
			t.Errorf("%s: HeteroOS-LRU (%.2f) far worse than Heap-OD (%.2f)", app, tL, tH)
		}
	}
}
