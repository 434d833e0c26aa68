package core

import (
	"context"
	"errors"
	"testing"

	"heteroos/internal/guestos"
	"heteroos/internal/policy"
	"heteroos/internal/workload"
)

func validConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		FastFrames: 4096 + 16384 + 1024,
		SlowFrames: 16384 + 1024,
		Seed:       1,
		VMs:        []VMConfig{microVM(t, policy.HeteroOSLRU(), 1)},
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero machine frames", func(c *Config) { c.FastFrames, c.SlowFrames = 0, 0 }},
		{"no VMs", func(c *Config) { c.VMs = nil }},
		{"nil workload", func(c *Config) { c.VMs[0].Workload = nil }},
		{"zero VM span", func(c *Config) { c.VMs[0].FastPages, c.VMs[0].SlowPages = 0, 0 }},
		{"fast span exceeds machine", func(c *Config) { c.VMs[0].FastPages = c.FastFrames + 1 }},
		{"slow span exceeds machine", func(c *Config) { c.VMs[0].SlowPages = c.SlowFrames + 1 }},
		{"negative epoch budget", func(c *Config) { c.MaxEpochs = -1 }},
		{"unknown share kind", func(c *Config) { c.Share = "bogus" }},
		{"duplicate VM IDs", func(c *Config) {
			dup := microVM(t, policy.HeapOD(), 2)
			dup.ID = c.VMs[0].ID
			c.VMs = append(c.VMs, dup)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validConfig(t)
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("Validate accepted a bad config")
			}
			if _, err := NewSystem(cfg); err == nil {
				t.Fatal("NewSystem accepted a bad config")
			}
		})
	}

	good := validConfig(t)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	// AllFastMem folds the slow span into FastMem; the folded span must
	// be validated against FastFrames, not the nominal FastPages.
	all := validConfig(t)
	all.VMs[0].Mode = policy.FastMemOnly()
	if err := all.Validate(); err != nil {
		t.Fatalf("AllFastMem config rejected: %v", err)
	}
	all.FastFrames = 4096 // too small for fast+slow folded together
	if err := all.Validate(); err == nil {
		t.Fatal("AllFastMem span exceeding FastFrames accepted")
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sys, err := Run(ctx, validConfig(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if sys == nil || sys.Epochs() != 0 {
		t.Fatal("a pre-cancelled run must boot the system and step no epoch")
	}
}

func TestEpochBudgetSentinel(t *testing.T) {
	cfg := validConfig(t)
	cfg.MaxEpochs = 3 // memlat needs ~20
	_, err := Run(context.Background(), cfg)
	if !errors.Is(err, ErrEpochBudget) {
		t.Fatalf("epoch-starved run error = %v, want ErrEpochBudget", err)
	}
}

// stalledWorkload reports no progress without finishing.
type stalledWorkload struct{ workload.Workload }

func (stalledWorkload) Step(os *guestos.OS) (uint64, bool) { return 0, false }

func TestWorkloadStalledSentinel(t *testing.T) {
	cfg := validConfig(t)
	cfg.VMs[0].Workload = stalledWorkload{cfg.VMs[0].Workload}
	_, err := Run(context.Background(), cfg)
	if !errors.Is(err, ErrWorkloadStalled) {
		t.Fatalf("stalled run error = %v, want ErrWorkloadStalled", err)
	}
}
