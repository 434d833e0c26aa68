package core

import (
	"bytes"
	"testing"

	"heteroos/internal/memsim"
	"heteroos/internal/policy"
	"heteroos/internal/workload"
)

// backendTestConfig builds a small single-VM config; the workload is
// constructed fresh per call so repeated runs start from identical
// state (workloads are stateful).
func backendTestConfig(t *testing.T, build memsim.Builder) Config {
	t.Helper()
	w, err := workload.ByName("memlat", workload.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		FastFrames: 24 * 1024,
		SlowFrames: 24 * 1024,
		MaxEpochs:  96,
		Seed:       7,
		Backend:    build,
		VMs: []VMConfig{{
			ID: 1, Mode: policy.HeteroOSCoordinated(), Workload: w,
			FastPages: 4 * 1024, SlowPages: 16 * 1024,
		}},
	}
}

func TestBackendDefaultIsAnalytic(t *testing.T) {
	cfg := backendTestConfig(t, nil)
	sys, err := NewSystem(cfg)
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

// A recorded analytic run replayed through the replay backend must
// reproduce the full VMResult exactly: every epoch cost comes back
// bit-identical from the trace and everything downstream of pricing is
// deterministic.
func TestSystemRecordReplayRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	var rec *memsim.Recorder
	recording := func(m *memsim.Machine, opts ...memsim.Option) memsim.Backend {
		rec = memsim.NewRecorder(memsim.NewAnalytic(m, opts...), &buf)
		return rec
	}
	res1, _, err := RunSingle(backendTestConfig(t, recording))
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if rec.Recorded() == 0 {
		t.Fatal("recorder saw no epochs")
	}

	tr, err := memsim.LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var rp *memsim.Replay
	replaying := func(m *memsim.Machine, opts ...memsim.Option) memsim.Backend {
		rp = memsim.NewReplay(tr, m, opts...)
		return rp
	}
	res2, sys, err := RunSingle(backendTestConfig(t, replaying))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Backend.Name() != memsim.BackendReplay {
		t.Fatalf("backend is %q, want replay", sys.Backend.Name())
	}
	if rp.Diverged() != 0 || rp.Overrun() != 0 {
		t.Fatalf("replay diverged=%d overrun=%d, want clean", rp.Diverged(), rp.Overrun())
	}
	if *res1 != *res2 {
		t.Fatalf("replayed result differs from recorded run:\nrecorded: %+v\nreplayed: %+v", *res1, *res2)
	}
}
