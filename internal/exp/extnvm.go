package exp

import (
	"context"
	"fmt"

	"heteroos/internal/core"
	"heteroos/internal/memsim"
	"heteroos/internal/metrics"
	"heteroos/internal/policy"
	"heteroos/internal/workload"
)

// ExtNVM evaluates the Section 4.3 write-aware migration extension (not
// a paper artifact — the paper leaves it as future work): a
// store-dominated workload over NVM-class SlowMem under plain
// coordinated management vs the write-bit-tracking variant, across
// FastMem sizes.
func ExtNVM(ctx context.Context, o Options) (*Result, error) {
	sizes := []int64{128 * workload.MiB, 192 * workload.MiB, 256 * workload.MiB}
	if o.Quick {
		sizes = []int64{192 * workload.MiB}
	}
	t := metrics.NewTable("Extension (Section 4.3): write-aware migration on NVM-class SlowMem",
		"FastMem", "coordinated (s)", "write-aware (s)", "gain %", "extra promotions")
	t.Caption = "writeheavy microbenchmark, 512MiB WSS split write-hot/read-hot, SlowMem L:5,B:9 (2x store penalty)"

	sw := newSweep(ctx, o)
	defer sw.close()
	submit := func(mode policy.Mode, fastBytes int64) *cell {
		w := workload.NewWriteHeavy(wcfg(o), 512*workload.MiB)
		fast := pages(fastBytes)
		slow := pages(2 * workload.GiB)
		label := fmt.Sprintf("writeheavy/%s/%dMiB", mode.Name, fastBytes/workload.MiB)
		return sw.submit(label, core.Config{
			FastFrames: fast + slow + 4096,
			SlowFrames: slow + 4096,
			SlowSpec:   memsim.SlowTierSpec(),
			Seed:       o.seed(),
			VMs: []core.VMConfig{{
				ID: 1, Mode: mode, Workload: w,
				FastPages: fast, SlowPages: slow,
			}},
		})
	}

	type pair struct{ plain, aware *cell }
	cells := make([]pair, len(sizes))
	for i, size := range sizes {
		cells[i] = pair{
			plain: submit(policy.HeteroOSCoordinated(), size),
			aware: submit(policy.HeteroOSCoordinatedNVM(), size),
		}
	}
	for i, size := range sizes {
		plain, err := cells[i].plain.result()
		if err != nil {
			return nil, err
		}
		aware, err := cells[i].aware.result()
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%dMiB", size/workload.MiB),
			plain.RuntimeSeconds(), aware.RuntimeSeconds(),
			metrics.GainPercent(plain.RuntimeSeconds(), aware.RuntimeSeconds()),
			int64(aware.Promotions)-int64(plain.Promotions))
	}
	return &Result{
		ID:    "ext-nvm",
		Table: t,
		Notes: "Extension beyond the paper: write-bit (PAGE_RW) tracking steers store-heavy pages into FastMem.",
	}, nil
}
