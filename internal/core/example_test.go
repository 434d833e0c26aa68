package core_test

import (
	"context"
	"fmt"

	"heteroos/internal/core"
	"heteroos/internal/policy"
	"heteroos/internal/workload"
)

// Build a one-VM system running the memlat microbenchmark under two
// management modes and compare runtimes — the minimal driving pattern
// every experiment and example uses.
func ExampleRun() {
	run := func(mode policy.Mode) float64 {
		w, err := workload.ByName("memlat", workload.Config{Seed: 1})
		if err != nil {
			panic(err)
		}
		sys, err := core.Run(context.Background(), core.Config{
			FastFrames: 4096 + 16384 + 1024, // machine FastMem (scaled pages)
			SlowFrames: 16384 + 1024,        // machine SlowMem
			Seed:       1,
			VMs: []core.VMConfig{{
				ID:        1,
				Mode:      mode,
				Workload:  w,
				FastPages: 4096,  // 1 GiB at the default 64x scale
				SlowPages: 16384, // 4 GiB
			}},
		})
		if err != nil {
			panic(err)
		}
		return sys.VMs[0].Res.RuntimeSeconds()
	}

	slow := run(policy.SlowMemOnly())
	fast := run(policy.FastMemOnly())
	fmt.Printf("SlowMem-only is %.1fx slower than FastMem-only\n", slow/fast)
	// Output:
	// SlowMem-only is 5.4x slower than FastMem-only
}
