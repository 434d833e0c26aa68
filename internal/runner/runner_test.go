package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitOrFail waits for f and fails the test if it takes more than a
// few seconds: a job the pool never resolves must not hang the suite.
func waitOrFail(t *testing.T, f *Future) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("future did not resolve")
		return nil
	}
}

// TestWorkersBound: never more than Workers jobs run at once, and
// Workers jobs can run at once (each of the first wave waits until the
// whole wave has started).
func TestWorkersBound(t *testing.T) {
	const workers, jobs = 3, 24
	pool := NewPool(context.Background(), Options{Workers: workers})
	var running, peak atomic.Int32
	wave := make(chan struct{})
	var started atomic.Int32
	futures := make([]*Future, jobs)
	for i := range futures {
		futures[i] = pool.Go(fmt.Sprint("job", i), func(context.Context) error {
			n := running.Add(1)
			defer running.Add(-1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			if started.Add(1) == workers {
				close(wave)
			}
			select {
			case <-wave:
			case <-time.After(5 * time.Second):
				return errors.New("the first wave never ran together")
			}
			time.Sleep(100 * time.Microsecond)
			return nil
		})
	}
	for i, f := range futures {
		if err := waitOrFail(t, f); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if got := peak.Load(); got != workers {
		t.Fatalf("peak concurrency %d, want exactly %d", got, workers)
	}
}

// TestPoolStreaming: futures resolve with their own job's error, and
// what a job writes is visible after Wait (the race detector checks the
// handoff).
func TestPoolStreaming(t *testing.T) {
	pool := NewPool(context.Background(), Options{Workers: 4})
	errOdd := errors.New("odd job")
	out := make([]int, 9)
	futures := make([]*Future, len(out))
	for i := range futures {
		futures[i] = pool.Go(fmt.Sprint("job", i), func(context.Context) error {
			out[i] = i * i
			if i%2 == 1 {
				return errOdd
			}
			return nil
		})
	}
	for i, f := range futures {
		err := waitOrFail(t, f)
		if want := i%2 == 1; errors.Is(err, errOdd) != want || (!want && err != nil) {
			t.Errorf("job %d: error %v", i, err)
		}
		if out[i] != i*i {
			t.Errorf("job %d wrote %d, want %d", i, out[i], i*i)
		}
	}
}

// TestPanicIsolation: one poisoned job reports ErrJobPanicked while its
// siblings complete normally.
func TestPanicIsolation(t *testing.T) {
	pool := NewPool(context.Background(), Options{Workers: 2})
	var ran atomic.Int32
	futures := make([]*Future, 3)
	for i := range futures {
		futures[i] = pool.Go(fmt.Sprint("job", i), func(context.Context) error {
			if i == 1 {
				panic("poisoned job")
			}
			ran.Add(1)
			return nil
		})
	}
	if err := waitOrFail(t, futures[1]); !errors.Is(err, ErrJobPanicked) {
		t.Fatalf("poisoned job error = %v, want ErrJobPanicked", err)
	}
	for _, i := range []int{0, 2} {
		if err := waitOrFail(t, futures[i]); err != nil {
			t.Errorf("sibling job %d failed: %v", i, err)
		}
	}
	if ran.Load() != 2 {
		t.Errorf("%d siblings ran, want 2", ran.Load())
	}
}

// TestCancelledBeforeStart: a pool whose context is already cancelled
// runs no job; every future carries the context error.
func TestCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pool := NewPool(ctx, Options{Workers: 2})
	var ran atomic.Int32
	for i := 0; i < 3; i++ {
		f := pool.Go(fmt.Sprint("job", i), func(context.Context) error {
			ran.Add(1)
			return nil
		})
		if err := waitOrFail(t, f); !errors.Is(err, context.Canceled) {
			t.Errorf("job %d: error %v, want context.Canceled", i, err)
		}
	}
	if ran.Load() != 0 {
		t.Fatalf("%d jobs ran under a cancelled context", ran.Load())
	}
}

// TestCancelMidBatch cancels from the progress callback after the first
// completion; with one worker, the first job succeeds and every later
// job resolves with the context error without running.
func TestCancelMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pool := NewPool(ctx, Options{
		Workers: 1,
		Progress: func(done, submitted int, label string) {
			if done == 1 {
				cancel()
			}
		},
	})
	ran := make([]bool, 4)
	futures := make([]*Future, len(ran))
	for i := range futures {
		futures[i] = pool.Go(fmt.Sprint("job", i), func(context.Context) error {
			ran[i] = true
			return nil
		})
	}
	ok := 0
	for i, f := range futures {
		switch err := waitOrFail(t, f); {
		case err == nil && ran[i]:
			ok++
		case errors.Is(err, context.Canceled) && !ran[i]:
		default:
			t.Errorf("job %d: ran=%v err=%v", i, ran[i], err)
		}
	}
	if ok != 1 {
		t.Errorf("%d jobs completed, want exactly the first", ok)
	}
}

// TestCancelInFlight: cancelling while a job runs hands the job the
// cancellation through its context; the job's return resolves the
// future.
func TestCancelInFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pool := NewPool(ctx, Options{Workers: 1})
	started := make(chan struct{})
	f := pool.Go("slow", func(ctx context.Context) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	})
	<-started
	cancel()
	if err := waitOrFail(t, f); !errors.Is(err, context.Canceled) {
		t.Fatalf("job error = %v, want context.Canceled", err)
	}
}

// TestProgressSerialized: Progress fires once per job with a monotone
// done count, never concurrently, and names every job's label once.
func TestProgressSerialized(t *testing.T) {
	const jobs = 32
	var inside atomic.Int32
	var mu sync.Mutex
	var dones []int
	labels := map[string]int{}
	pool := NewPool(context.Background(), Options{
		Workers: 4,
		Progress: func(done, submitted int, label string) {
			if inside.Add(1) != 1 {
				t.Error("Progress callbacks overlapped")
			}
			defer inside.Add(-1)
			if submitted < done || submitted > jobs {
				t.Errorf("progress %d/%d", done, submitted)
			}
			mu.Lock()
			dones = append(dones, done)
			labels[label]++
			mu.Unlock()
		},
	})
	futures := make([]*Future, jobs)
	for i := range futures {
		futures[i] = pool.Go(fmt.Sprint("job", i), func(context.Context) error {
			time.Sleep(time.Duration(i%3) * 100 * time.Microsecond)
			return nil
		})
	}
	for _, f := range futures {
		waitOrFail(t, f)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("progress done counts %v are not 1..%d", dones, jobs)
		}
	}
	if len(dones) != jobs || len(labels) != jobs {
		t.Fatalf("progress fired %d times for %d labels, want %d", len(dones), len(labels), jobs)
	}
	for i := 0; i < jobs; i++ {
		if labels[fmt.Sprint("job", i)] != 1 {
			t.Errorf("label job%d reported %d times", i, labels[fmt.Sprint("job", i)])
		}
	}
}

// TestDeriveSeedPopulation hardens seed derivation for fleet-scale
// populations: 100k derived seeds (root seeds 0..9 × indices 0..9999)
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
