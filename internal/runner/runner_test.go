package runner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"heteroos/internal/core"
	"heteroos/internal/guestos"
	"heteroos/internal/policy"
	"heteroos/internal/workload"
)

// microCfg is the small memlat shape the core tests use: fast enough to
// batch dozens of cells, big enough to exercise both tiers.
func microCfg(t testing.TB, mode policy.Mode, seed uint64) core.Config {
	t.Helper()
	w, err := workload.ByName("memlat", workload.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return core.Config{
		FastFrames: 4096 + 16384 + 1024,
		SlowFrames: 16384 + 1024,
		Seed:       seed,
		VMs: []core.VMConfig{{
			ID: 1, Mode: mode, Workload: w,
			FastPages: 4096, SlowPages: 16384,
		}},
	}
}

func microBatch(t testing.TB, n int) []Job {
	t.Helper()
	modes := []policy.Mode{policy.HeteroOSLRU(), policy.HeteroOSCoordinated()}
	jobs := make([]Job, 0, n)
	for i := 0; i < n; i++ {
		m := modes[i%len(modes)]
		jobs = append(jobs, Job{
			Label: fmt.Sprintf("memlat/%s/%d", m.Name, i),
			Cfg:   microCfg(t, m, uint64(i+1)),
		})
	}
	return jobs
}

// TestRunDeterministicAcrossWorkerCounts is the headline guarantee: the
// same batch yields identical results at workers=1 and workers=8, in
// the same (input) order.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	serial, err := Run(context.Background(), microBatch(t, 6), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(context.Background(), microBatch(t, 6), Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("job %d errored: %v / %v", i, serial[i].Err, parallel[i].Err)
		}
		if serial[i].Label != parallel[i].Label {
			t.Fatalf("job %d label %q vs %q: results out of input order",
				i, serial[i].Label, parallel[i].Label)
		}
		if !reflect.DeepEqual(serial[i].Res, parallel[i].Res) {
			t.Errorf("job %d (%s): results differ between workers=1 and workers=8",
				i, serial[i].Label)
		}
	}
}

// TestCancelledBeforeStart: a pre-cancelled context flags every job with
// the context error without running any simulation.
func TestCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := Run(ctx, microBatch(t, 3), Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d: Err = %v, want context.Canceled", i, r.Err)
		}
		if r.Res != nil {
			t.Errorf("job %d: has a result despite cancellation", i)
		}
	}
}

// TestCancelMidBatch cancels from the progress callback after the first
// completion; with one worker, every later job must be flagged and the
// batch must still return promptly with partial results intact.
func TestCancelMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results, err := Run(ctx, microBatch(t, 4), Options{
		Workers: 1,
		Progress: func(done, submitted int, r Result) {
			if done == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	var ok, flagged int
	for _, r := range results {
		switch {
		case r.Err == nil && r.Res != nil:
			ok++
		case errors.Is(r.Err, context.Canceled):
			flagged++
		default:
			t.Errorf("%s: unexpected state Res=%v Err=%v", r.Label, r.Res, r.Err)
		}
	}
	if ok == 0 {
		t.Error("no job completed before cancellation")
	}
	if flagged == 0 {
		t.Error("no job was flagged with the context error")
	}
	if ok+flagged != len(results) {
		t.Errorf("ok=%d flagged=%d, want total %d", ok, flagged, len(results))
	}
}

// slowWorkload wraps a real workload, sleeps each epoch, and never
// reports completion — a stand-in for a long simulation.
type slowWorkload struct {
	workload.Workload
	drained bool
}

func (s *slowWorkload) Step(os *guestos.OS) (uint64, bool) {
	time.Sleep(500 * time.Microsecond)
	if !s.drained {
		instr, done := s.Workload.Step(os)
		if done || instr == 0 {
			s.drained = true
		}
		if instr > 0 {
			return instr, false
		}
	}
	return 1, false // idle spin: nonzero instructions, never done
}

// TestCancelInFlight: cancelling while a simulation is executing stops
// it at the next epoch boundary rather than letting it run out its
// epoch budget.
func TestCancelInFlight(t *testing.T) {
	cfg := microCfg(t, policy.HeteroOSLRU(), 1)
	cfg.MaxEpochs = 1 << 20 // far longer than the test allows
	cfg.VMs[0].Workload = &slowWorkload{Workload: cfg.VMs[0].Workload}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	results, err := Run(ctx, []Job{{Label: "slow", Cfg: cfg}}, Options{Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if !errors.Is(results[0].Err, context.Canceled) {
		t.Fatalf("job error = %v, want context.Canceled", results[0].Err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %s; should stop within an epoch", elapsed)
	}
}

// panicWorkload explodes on its first step.
type panicWorkload struct{ workload.Workload }

func (p panicWorkload) Step(os *guestos.OS) (uint64, bool) {
	panic("poisoned step")
}

// TestPanicIsolation: one poisoned job reports ErrJobPanicked while its
// siblings complete normally.
func TestPanicIsolation(t *testing.T) {
	jobs := microBatch(t, 3)
	jobs[1].Cfg.VMs[0].Workload = panicWorkload{jobs[1].Cfg.VMs[0].Workload}

	results, err := Run(context.Background(), jobs, Options{Workers: 2})
	if err != nil {
		t.Fatalf("Run error = %v; job failures must not abort the batch", err)
	}
	if !errors.Is(results[1].Err, ErrJobPanicked) {
		t.Fatalf("poisoned job error = %v, want ErrJobPanicked", results[1].Err)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Errorf("sibling job %d failed: %v", i, results[i].Err)
		}
		if results[i].Res == nil {
			t.Errorf("sibling job %d has no result", i)
		}
	}
}

// TestBatchSeedDerivation: jobs with Seed zero draw distinct per-job
// seeds from BatchSeed, reproducibly across runs and worker counts.
func TestBatchSeedDerivation(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 64; i++ {
		s := DeriveSeed(42, i)
		if s == 0 {
			t.Fatalf("DeriveSeed(42, %d) = 0; zero seeds are reserved", i)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("DeriveSeed(42, %d) collides with index %d", i, prev)
		}
		seen[s] = i
	}
	if DeriveSeed(42, 0) != DeriveSeed(42, 0) {
		t.Fatal("DeriveSeed is not stable")
	}

	batch := func(workers int) []Result {
		jobs := microBatch(t, 4)
		for i := range jobs {
			jobs[i].Cfg.Seed = 0
			jobs[i].Cfg.VMs[0].Workload = mustWorkload(t, "memlat", DeriveSeed(7, i))
		}
		results, err := Run(context.Background(), jobs, Options{Workers: workers, BatchSeed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	one, eight := batch(1), batch(8)
	for i := range one {
		if one[i].Err != nil || eight[i].Err != nil {
			t.Fatalf("job %d errored: %v / %v", i, one[i].Err, eight[i].Err)
		}
		if !reflect.DeepEqual(one[i].Res, eight[i].Res) {
			t.Errorf("job %d: BatchSeed results differ across worker counts", i)
		}
	}
	if reflect.DeepEqual(one[0].Res, one[1].Res) {
		t.Error("distinct derived seeds produced identical results")
	}
}

// TestDeriveSeedPopulation hardens seed derivation for fleet-scale
// populations: 100k derived seeds (batch seeds 0..9 × indices 0..9999)
// must be pairwise distinct, and the low bits must look independent of
// the index — an additive-only derivation fails both (consecutive
// indices differ by a constant, so low bits cycle with period 2^k).
func TestDeriveSeedPopulation(t *testing.T) {
	const batches, per = 10, 10000
	seen := make(map[uint64][2]int, batches*per)
	var lowBitOnes [8]int // popcount of bit b over the whole population
	parityMatch := 0      // how often seed bit 0 equals index bit 0
	for b := 0; b < batches; b++ {
		for i := 0; i < per; i++ {
			s := DeriveSeed(uint64(b), i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("DeriveSeed(%d,%d) == DeriveSeed(%d,%d) == %#x",
					b, i, prev[0], prev[1], s)
			}
			seen[s] = [2]int{b, i}
			for bit := 0; bit < 8; bit++ {
				lowBitOnes[bit] += int((s >> bit) & 1)
			}
			if (s^uint64(i))&1 == 0 {
				parityMatch++
			}
		}
	}
	total := batches * per
	// Each low bit should be set ~50% of the time; 4 standard deviations
	// of a fair coin over 100k draws is ~0.63%, allow 2%.
	for bit, ones := range lowBitOnes {
		frac := float64(ones) / float64(total)
		if frac < 0.48 || frac > 0.52 {
			t.Errorf("bit %d set in %.4f of derived seeds, want ~0.5", bit, frac)
		}
	}
	// Seed parity must not track index parity.
	if frac := float64(parityMatch) / float64(total); frac < 0.48 || frac > 0.52 {
		t.Errorf("seed bit0 matches index bit0 in %.4f of draws, want ~0.5", frac)
	}
}

// TestMix64Bijection spot-checks that Mix64 is collision-free on a
// dense low range and on the DeriveSeed golden-weyl lattice — the two
// input families the repo feeds it.
func TestMix64Bijection(t *testing.T) {
	seen := make(map[uint64]uint64, 1<<16)
	for i := uint64(0); i < 1<<15; i++ {
		for _, in := range []uint64{i, i * 0x9e3779b97f4a7c15} {
			out := Mix64(in)
			if prev, dup := seen[out]; dup && prev != in {
				t.Fatalf("Mix64(%#x) == Mix64(%#x) == %#x", in, prev, out)
			}
			seen[out] = in
		}
	}
}

func mustWorkload(t testing.TB, name string, seed uint64) workload.Workload {
	t.Helper()
	w, err := workload.ByName(name, workload.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestPoolStreaming exercises the Submit/Wait path directly, including
// the monotone serialized progress callback.
func TestPoolStreaming(t *testing.T) {
	var mu sync.Mutex
	var dones []int
	pool := NewPool(context.Background(), Options{
		Workers: 4,
		Progress: func(done, submitted int, r Result) {
			mu.Lock()
			dones = append(dones, done)
			mu.Unlock()
		},
	})
	jobs := microBatch(t, 5)
	futures := make([]*Future, len(jobs))
	for i, j := range jobs {
		futures[i] = pool.Submit(j.Label, j.Cfg)
	}
	for i, f := range futures {
		res, sys, err := f.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if res == nil || sys == nil {
			t.Fatalf("job %d: nil result/system", i)
		}
		if f.Label() != jobs[i].Label {
			t.Fatalf("job %d label %q, want %q", i, f.Label(), jobs[i].Label)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(dones) != len(jobs) {
		t.Fatalf("progress fired %d times, want %d", len(dones), len(jobs))
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("progress done counts %v are not monotone", dones)
		}
	}
}
