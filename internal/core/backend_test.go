package core

import (
	"testing"

	"heteroos/internal/memsim"
	"heteroos/internal/policy"
	"heteroos/internal/workload"
)

func TestBackendDefaultIsAnalytic(t *testing.T) {
	w, err := workload.ByName("memlat", workload.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Config{
		FastFrames: 24 * 1024,
		SlowFrames: 24 * 1024,
		MaxEpochs:  96,
		Seed:       7,
		VMs: []VMConfig{{
			ID: 1, Mode: policy.HeteroOSCoordinated(), Workload: w,
			FastPages: 4 * 1024, SlowPages: 16 * 1024,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Backend.Name() != memsim.BackendAnalytic {
		t.Fatalf("default backend is %q, want analytic", sys.Backend.Name())
	}
	if sys.Backend.Machine() != sys.Machine {
		t.Fatal("backend not wired to the system machine")
	}
}
