package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"heteroos/internal/guestos"
)

const reproDir = "testdata/fuzz/repros"

// failWithRepro shrinks a fresh failure and writes the repro before
// failing the test, so every fuzz discovery leaves a replayable file.
func failWithRepro(t *testing.T, seed uint64, sc *Script, err error) {
	t.Helper()
	r := Shrink(context.Background(), &Repro{Seed: seed, Script: sc, Err: err.Error()})
	path, werr := r.WriteFile(reproDir)
	if werr != nil {
		t.Fatalf("seed %d: %v (writing repro also failed: %v)", seed, err, werr)
	}
	t.Fatalf("seed %d: %v (shrunken repro: %s)", seed, err, path)
}

// TestFuzzSmoke drives a fixed band of seeds through the generator and
// the strict harness: every generated script must validate and run
// with invariants intact after every event and round. This is the
// `make fuzz-smoke` gate.
func TestFuzzSmoke(t *testing.T) {
	ctx := context.Background()
	for seed := uint64(1); seed <= 20; seed++ {
		sc := Generate(seed)
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d: generator produced an invalid script: %v", seed, err)
		}
		if err := CheckScript(ctx, sc, nil); err != nil {
			failWithRepro(t, seed, sc, err)
		}
	}
}

// TestGenerateDeterministic: the generator is a pure function of seed.
func TestGenerateDeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 7, 1<<40 + 3} {
		a, b := mustJSON(t, Generate(seed)), mustJSON(t, Generate(seed))
		if a != b {
			t.Fatalf("seed %d generated two different scripts:\n%s\nvs\n%s", seed, a, b)
		}
	}
}

func mustJSON(t *testing.T, v interface{}) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// FuzzScript is the go-test fuzzing entry: any seed the engine finds
// that breaks an invariant is shrunk and written to testdata before
// the failure reports.
func FuzzScript(f *testing.F) {
	for _, s := range []uint64{1, 7, 23, 42, 1337} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		sc := Generate(seed)
		if err := CheckScript(context.Background(), sc, nil); err != nil {
			failWithRepro(t, seed, sc, err)
		}
	})
}

// FuzzParse fuzzes the script loader: it must never panic, and a
// script it accepts must either build a cluster or fail with an error.
// Scripts too large to build cheaply are only parsed.
func FuzzParse(f *testing.F) {
	for _, name := range Bundled() {
		b, err := bundledFS.ReadFile("scripts/" + name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	r, err := LoadRepro(reproDir + "/steal-frame-demo.json")
	if err != nil {
		f.Fatal(err)
	}
	b, err := json.Marshal(r.Script)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data)
		if err != nil {
			return
		}
		if sc.Hosts > 4 || sc.TotalVMs() > 16 || sc.Host.FastFrames+sc.Host.SlowFrames > 1<<17 {
			return
		}
		if c, err := NewCluster(sc, Options{Workers: 1}); err == nil && c == nil {
			t.Fatal("NewCluster returned neither a cluster nor an error")
		}
	})
}

// TestHarnessCatchesInjectedDefect: the strict harness must flag a
// deliberately corrupted run, and must flag it as an invariant-class
// failure (not a benign rejection).
func TestHarnessCatchesInjectedDefect(t *testing.T) {
	ctx := context.Background()
	sc := Generate(2)
	// The clean run must get past the defect round; a script that ends
	// early (a benign rejection) would never inject it.
	if _, err := Run(ctx, sc, Options{Workers: 1}); err != nil {
		t.Fatalf("seed 2 does not run to completion: %v", err)
	}
	err := CheckScript(ctx, sc, &Defect{Kind: DefectStealFrame, At: 6})
	if err == nil {
		t.Fatal("stolen frame escaped the invariant harness")
	}
	if !errors.Is(err, ErrInvariant) {
		t.Fatalf("defect classified as benign: %v", err)
	}
	if CheckScript(ctx, sc, nil) != nil {
		t.Fatal("the same script without the defect should pass")
	}
}

// TestShrinkInjectedDefect: the shrinker must preserve the failure
// while reducing the case — no more events, one host, a horizon pulled
// in to just past the defect round, and the defect itself pulled
// toward round zero.
func TestShrinkInjectedDefect(t *testing.T) {
	ctx := context.Background()
	sc := Generate(11)
	r := &Repro{Seed: 11, Script: sc, Defect: &Defect{Kind: DefectStealFrame, At: 9}}
	if err := CheckScript(ctx, sc, r.Defect); err == nil {
		t.Fatal("seed 11 + defect did not fail; pick another seed")
	} else {
		r.Err = err.Error()
	}

	min := Shrink(ctx, r)
	if err := CheckScript(ctx, min.Script, min.Defect); err == nil {
		t.Fatal("shrunken repro no longer fails")
	}
	if err := min.Script.Validate(); err != nil {
		t.Fatalf("shrunken repro is invalid: %v", err)
	}
	if len(min.Script.Events) > len(sc.Events) {
		t.Errorf("shrink grew the script: %d -> %d events", len(sc.Events), len(min.Script.Events))
	}
	if got, limit := min.Script.Rounds, min.Defect.At+1; got > limit {
		t.Errorf("horizon %d not pulled in to defect round + 1 (%d)", got, limit)
	}
	if min.Defect.At != 0 {
		t.Errorf("defect round %d not pulled to zero", min.Defect.At)
	}
	if min.Script.Hosts != 1 || len(min.Script.VMs) > 1 {
		t.Errorf("shrunken repro keeps %d hosts and %d round-0 groups, want 1 and at most 1",
			min.Script.Hosts, len(min.Script.VMs))
	}
	// The original repro must be untouched.
	if r.Script.Rounds != sc.Rounds || r.Defect.At != 9 {
		t.Error("Shrink modified its input")
	}
}

// TestShrinkCleanCaseIsNoop: shrinking something that does not fail
// returns it unchanged rather than looping.
func TestShrinkCleanCaseIsNoop(t *testing.T) {
	sc := Generate(3)
	out := Shrink(context.Background(), &Repro{Seed: 3, Script: sc})
	if mustJSON(t, out.Script) != mustJSON(t, sc) {
		t.Error("shrinking a passing case changed the script")
	}
}

// TestGuestPanicContained replays the fuzzer's first real find: a
// guest too small for its workload exhausts page-table memory. The
// guest kernel panic must surface as an ordinary run error attributed
// to the VM — not a process panic, and not a fuzzing defect (the
// script asked for an impossible guest; the stack refusing it cleanly
// is correct behavior).
func TestGuestPanicContained(t *testing.T) {
	sc := oneHost("guest-oom", 42, 1024, 8192, 4,
		VMGroup{App: "writeheavy", Mode: "HeteroOS-coordinated-NVM", FastPages: 16, SlowPages: 128})
	_, err := Run(context.Background(), sc, Options{})
	if err == nil {
		t.Fatal("undersized guest ran clean; expected a contained guest kernel panic")
	}
	var gp *guestos.GuestPanic
	if !errors.As(err, &gp) {
		t.Fatalf("error is not a contained guest panic: %v", err)
	}
	if err := CheckScript(context.Background(), sc, nil); err != nil {
		t.Fatalf("contained guest panic misclassified as a fuzzing defect: %v", err)
	}
}

// TestCommittedRepro replays the checked-in demo repro: the committed
// minimal case must still reproduce its invariant failure, proving the
// repro format round-trips and the harness detection is stable.
func TestCommittedRepro(t *testing.T) {
	r, err := LoadRepro(reproDir + "/steal-frame-demo.json")
	if err != nil {
		t.Fatal(err)
	}
	ferr := CheckScript(context.Background(), r.Script, r.Defect)
	if ferr == nil {
		t.Fatal("committed repro no longer reproduces")
	}
	if !errors.Is(ferr, ErrInvariant) {
		t.Fatalf("committed repro failed for the wrong reason: %v", ferr)
	}
	if ferr.Error() != r.Err {
		t.Errorf("committed repro fails differently:\ngot  %s\nwant %s", ferr, r.Err)
	}
}

// TestRegenDemoRepro rewrites the committed demo repro from scratch
// (generate, inject, shrink, write). Gated behind REGEN_REPRO=1 so it
// only runs when the format or the shrinker changes on purpose.
func TestRegenDemoRepro(t *testing.T) {
	if os.Getenv("REGEN_REPRO") != "1" {
		t.Skip("set REGEN_REPRO=1 to rewrite the committed demo repro")
	}
	ctx := context.Background()
	sc := Generate(11)
	r := &Repro{Seed: 11, Script: sc, Defect: &Defect{Kind: DefectStealFrame, At: 9}}
	err := CheckScript(ctx, sc, r.Defect)
	if err == nil {
		t.Fatal("demo defect does not fail")
	}
	r.Err = err.Error()
	min := Shrink(ctx, r)
	min.Script.Name = "steal-frame-demo"
	path, err := min.WriteFile(reproDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}
