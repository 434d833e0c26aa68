package workload

import (
	"bytes"
	"errors"
	"math"
	"math/bits"
	"slices"
	"sort"
	"testing"

	"heteroos/internal/guestos"
	"heteroos/internal/memsim"
	"heteroos/internal/sim"
	"heteroos/internal/snapshot"
)

// testSource backs a guest with ample frames of both tiers.
type testSource struct{ m *memsim.Machine }

func newTestSource() *testSource {
	return &testSource{m: memsim.NewMachine(1<<20, 1<<20, memsim.FastTierSpec(), memsim.SlowTierSpec())}
}

func (s *testSource) Populate(t memsim.Tier, want uint64) []memsim.MFN {
	fs, err := s.m.Alloc(t, want, 1)
	if err != nil {
		return nil
	}
	return fs
}

func (s *testSource) PopulateAny(want uint64) []memsim.MFN {
	return s.Populate(memsim.SlowMem, want)
}

func (s *testSource) Release(m []memsim.MFN) { s.m.Free(m, 1) }

func bootOS(t *testing.T) *guestos.OS {
	t.Helper()
	src := newTestSource()
	pl := guestos.PlacementConfig{Name: "test"}
	pl.FastKinds[guestos.KindAnon] = true
	pl.FastKinds[guestos.KindPageCache] = true
	pl.FastKinds[guestos.KindNetBuf] = true
	pl.FastKinds[guestos.KindSlab] = true
	os, err := guestos.New(guestos.Config{
		Aware:        true,
		FastMaxPages: 1 << 16, SlowMaxPages: 1 << 17,
		BootFastPages: 1 << 15, BootSlowPages: 1 << 16,
		Placement: pl, Source: src, TierOf: src.m.TierOf, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return os
}

func TestPagesScaling(t *testing.T) {
	c := Config{}
	// 4 GiB at the default scale of 64 = 16384 simulated pages.
	if got := c.Pages(4 * GiB); got != 16384 {
		t.Fatalf("Pages(4GiB) = %d", got)
	}
	if got := c.Pages(1); got != 1 {
		t.Fatal("tiny sizes must round up to one page")
	}
	c2 := Config{Scale: 1}
	if got := c2.Pages(GiB); got != 262144 {
		t.Fatalf("unscaled Pages(1GiB) = %d", got)
	}
}

func TestByNameCoversTable2(t *testing.T) {
	for _, name := range Names() {
		w, err := ByName(name, Config{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := w.Profile()
		if p.Name == "" || p.MPKI <= 0 || p.WSSBytes <= 0 || p.Threads <= 0 ||
			p.InstrPerEpoch == 0 || p.TotalEpochs <= 0 {
			t.Errorf("%s: incomplete profile %+v", name, p)
		}
	}
	for _, micro := range []string{"memlat", "stream"} {
		if _, err := ByName(micro, Config{Seed: 1}); err != nil {
			t.Errorf("%s: %v", micro, err)
		}
	}
	if _, err := ByName("nope", Config{}); err == nil {
		t.Error("unknown app accepted")
	} else if !errors.Is(err, ErrUnknownApp) {
		t.Errorf("error %v does not wrap ErrUnknownApp", err)
	}
}

func TestTable4MPKIValues(t *testing.T) {
	want := map[string]float64{
		"GraphChi": 27.4, "X-Stream": 24.8, "Metis": 14.9,
		"LevelDB": 4.7, "Redis": 11.1, "Nginx": 2.1,
	}
	for name, mpki := range want {
		w, err := ByName(name, Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := w.Profile().MPKI; got != mpki {
			t.Errorf("%s MPKI = %v, want %v (Table 4)", name, got, mpki)
		}
	}
}

func TestEveryWorkloadRunsToCompletion(t *testing.T) {
	names := append(Names(), "memlat", "stream")
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			os := bootOS(t)
			w, err := ByName(name, Config{Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Init(os); err != nil {
				t.Fatal(err)
			}
			prof := w.Profile()
			steps := 0
			for {
				instr, done := w.Step(os)
				os.EndEpoch()
				steps++
				if !done && instr == 0 {
					t.Fatal("workload stalled")
				}
				if done {
					break
				}
				if steps > prof.TotalEpochs+5 {
					t.Fatalf("did not finish within %d epochs", prof.TotalEpochs)
				}
			}
			if steps != prof.TotalEpochs {
				t.Errorf("ran %d epochs, profile says %d", steps, prof.TotalEpochs)
			}
			st := os.DrainEpoch()
			_ = st
			if err := os.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestWorkloadsTouchExpectedSubsystems(t *testing.T) {
	// Each app's page census must reflect its Table 2 / Figure 4
	// character.
	run := func(name string, epochs int) (*guestos.OS, [guestos.NumKinds]uint64) {
		os := bootOS(t)
		w, err := ByName(name, Config{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Init(os); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < epochs; i++ {
			if _, done := w.Step(os); done {
				break
			}
			os.EndEpoch()
		}
		return os, os.PageCensus()
	}

	if _, c := run("GraphChi", 12); c[guestos.KindAnon] == 0 || c[guestos.KindPageCache] == 0 {
		t.Error("GraphChi should populate heap and page cache")
	}
	if os, c := run("Redis", 6); c[guestos.KindNetBuf] == 0 {
		_ = os
		t.Error("Redis should hold skbuff pages")
	}
	if _, c := run("LevelDB", 6); c[guestos.KindPageCache] == 0 {
		t.Error("LevelDB should populate the page cache")
	}
	if os, _ := run("LevelDB", 6); func() bool {
		a, _, _, _ := os.Slabs[guestos.SlabFSMeta].Stats()
		return a == 0
	}() {
		t.Error("LevelDB should churn filesystem metadata slabs")
	}
}

func TestHeapRegionDrift(t *testing.T) {
	os := bootOS(t)
	// A drifting region's touched set must move over time.
	r := mustHeapRegion(t, os, 1000, 100, 1.0)
	r.setDrift(100)
	first := touchedSet(t, os, r)
	for i := 0; i < 5; i++ {
		if err := r.touch(os, 200, 2, 0); err != nil {
			t.Fatal(err)
		}
	}
	later := touchedSet(t, os, r)
	overlap := 0
	for pfn := range later {
		if first[pfn] {
			overlap++
		}
	}
	if overlap > len(later)/2 {
		t.Errorf("hot window did not drift: %d/%d overlap", overlap, len(later))
	}
}

func mustHeapRegion(t *testing.T, os *guestos.OS, pages, hot uint64, frac float64) *heapRegion {
	t.Helper()
	r, err := newHeapRegion(os, newTestRNG(), pages, hot, frac)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// takeAccessed reads and clears the guest's access bits, one word per
// 64 frames: the frames touched since the last call.
func takeAccessed(os *guestos.OS) []uint64 {
	out := make([]uint64, (os.NumPFNs()+63)/64)
	for w := range out {
		out[w] = os.TakeScanAccessedWord(w, ^uint64(0))
	}
	return out
}

// touchedSet runs one touch in a fresh epoch and reads back, through
// the guest's access bits, which frames it used.
func touchedSet(t *testing.T, os *guestos.OS, r *heapRegion) map[guestos.PFN]bool {
	t.Helper()
	os.EndEpoch()
	takeAccessed(os)
	if err := r.touch(os, 200, 2, 0); err != nil {
		t.Fatal(err)
	}
	out := make(map[guestos.PFN]bool)
	for w, word := range takeAccessed(os) {
		for ; word != 0; word &= word - 1 {
			out[guestos.PFN(w*64+bits.TrailingZeros64(word))] = true
		}
	}
	if len(out) == 0 {
		t.Fatal("touch used no page")
	}
	return out
}

// refSample is one sample of heapRegion.draw written with the RNG's
// Bool and Intn and the % operator, one call per value: the formula the
// chunked Fill, the precomputed remainders and the conditional-subtract
// wrap replace.
func refSample(h *heapRegion, rng *sim.RNG) (uint64, bool) {
	if rng.Bool(h.hotFrac) {
		return (h.hotStart + uint64(rng.Intn(int(h.hotPages)))) % h.pages, true
	}
	if h.pages == h.hotPages {
		return uint64(rng.Intn(int(h.pages))), true
	}
	off := uint64(rng.Intn(int(h.pages - h.hotPages)))
	return (h.hotStart + h.hotPages + off) % h.pages, false
}

// refTouch is heapRegion.touch as refSample's draws collected in a map
// of per-VPN counts walked in sorted order, the shape the dense count
// array and bitmap replace.
func refTouch(h *heapRegion, os *guestos.OS, samples int, accessesPerSample uint64, storeFrac float64) error {
	counts := make(map[guestos.VPN]uint64, samples)
	for i := 0; i < samples; i++ {
		idx, hot := refSample(h, h.rng)
		vpn := h.vma.Start + guestos.VPN(idx)
		if hot {
			counts[vpn] += accessesPerSample
		} else {
			counts[vpn]++
		}
	}
	vpns := make([]guestos.VPN, 0, len(counts))
	for vpn := range counts {
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	for _, vpn := range vpns {
		n := counts[vpn]
		stores := uint64(float64(n) * storeFrac)
		if _, err := os.TouchVPN(vpn, n-stores, stores); err != nil {
			return err
		}
	}
	h.hotStart = (h.hotStart + h.drift) % h.pages
	return nil
}

// TestTouchMatchesSortedMapReference drives the same region on two
// identically booted guests, one through touch and one through the
// map-and-sort reference, and requires the same guest: the same
// VPN-to-PFN mapping and per-page LastUse after every epoch, and the
// same complete guest state (SnapshotState bytes) at the end.
func TestTouchMatchesSortedMapReference(t *testing.T) {
	for _, c := range []struct {
		name              string
		pages, hot, drift uint64
		frac              float64
		samples           int
	}{
		{"not-multiple-of-64", 1000, 100, 37, 0.9, 300},
		{"wrapping-window", 130, 50, 45, 0.8, 120},
		{"samples-exceed-pages", 100, 30, 11, 0.7, 3000},
		{"whole-region-hot", 64, 64, 0, 1.0, 200},
		// A region that is all hot window but not always drawn from it:
		// the cold branch draws without the window start, weighted hot.
		{"whole-region-hot-frac-below-one", 150, 150, 13, 0.6, 200},
		// Spans several sample chunks and ends mid-chunk.
		{"several-chunks", 5000, 700, 97, 0.85, 3*sampleChunk + 77},
	} {
		t.Run(c.name, func(t *testing.T) {
			refOS, gotOS := bootOS(t), bootOS(t)
			ref := mustHeapRegion(t, refOS, c.pages, c.hot, c.frac)
			got := mustHeapRegion(t, gotOS, c.pages, c.hot, c.frac)
			ref.setDrift(c.drift)
			got.setDrift(c.drift)
			wrapped := false
			for epoch := 0; epoch < 12; epoch++ {
				wrapped = wrapped || got.hotStart+got.hotPages > got.pages
				if err := refTouch(ref, refOS, c.samples, 3, 0.25); err != nil {
					t.Fatal(err)
				}
				if err := got.touch(gotOS, c.samples, 3, 0.25); err != nil {
					t.Fatal(err)
				}
				if ref.hotStart != got.hotStart {
					t.Fatalf("epoch %d: hotStart %d, reference %d", epoch, got.hotStart, ref.hotStart)
				}
				if r, g := takeAccessed(refOS), takeAccessed(gotOS); !slices.Equal(r, g) {
					t.Fatalf("epoch %d: touched frames %x, reference %x", epoch, g, r)
				}
				refOS.EndEpoch()
				gotOS.EndEpoch()
			}
			if c.name == "wrapping-window" && !wrapped {
				t.Fatal("hot window never wrapped")
			}
			if !bytes.Equal(guestState(t, refOS), guestState(t, gotOS)) {
				t.Fatal("guest state differs from the reference's after the last epoch")
			}
			assertScratchClear(t, got)
		})
	}
}

// TestSampleMatchesModuloReference draws from each geometry with the
// chunked draw and with refSample on a clone of the region's RNG, and
// requires the same per-page access counts and sampled-page bitmap, and
// the same RNG state after. The draws come in calls of 1, 255, 257 and
// then the rest, so chunks end at every offset the call sizes allow and
// no call is a multiple of the chunk.
func TestSampleMatchesModuloReference(t *testing.T) {
	const draws = 100_000
	const weight = 3
	for _, c := range []struct {
		name                 string
		pages, hot, hotStart uint64
		frac                 float64
	}{
		{"one-page", 1, 1, 0, 0.5},
		{"all-hot", 1000, 1000, 999, 0.5},
		{"all-hot-frac0", 1000, 1000, 500, 0},
		{"one-hot-page", 1000, 1, 999, 0.5},
		{"start-at-end", 777, 300, 776, 0.5},
		{"frac0", 777, 300, 600, 0},
		{"frac1", 777, 300, 600, 1},
		{"frac-half-mid", 4096, 1024, 3500, 0.5},
		{"non-power-of-two", 100_003, 33_331, 99_000, 0.8},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := &heapRegion{
				rng: sim.NewRNG(c.pages*31 + c.hotStart), pages: c.pages, hotPages: c.hot,
				hotStart: c.hotStart, hotFrac: c.frac,
				counts: make([]uint32, c.pages), touched: make([]uint64, (c.pages+63)/64),
			}
			h.setModuli()
			ref := sim.NewRNG(0)
			ref.Restore(h.rng.State())
			left := draws
			for _, n := range []int{1, 255, 257, draws} {
				n = min(n, left)
				h.draw(n, weight)
				left -= n
			}
			want := make([]uint32, c.pages)
			var hot, cold, wrapped int
			for i := 0; i < draws; i++ {
				idx, isHot := refSample(h, ref)
				if isHot {
					want[idx] += weight
					hot++
				} else {
					want[idx]++
					cold++
				}
				if idx < c.hotStart {
					wrapped++
				}
			}
			for idx, n := range h.counts {
				if n != want[idx] {
					t.Fatalf("page %d drawn for %d accesses, reference %d", idx, n, want[idx])
				}
				if sampled := h.touched[idx/64]&(1<<(idx%64)) != 0; sampled != (n != 0) {
					t.Fatalf("page %d: bitmap bit %v with %d accesses", idx, sampled, n)
				}
			}
			if h.rng.State() != ref.State() {
				t.Fatal("draw consumed a different RNG stream")
			}
			// Both sides of each split were drawn where the geometry
			// allows it, so neither branch went untested.
			if c.frac > 0 && hot == 0 || c.frac < 1 && c.hot < c.pages && cold == 0 {
				t.Fatalf("%d hot and %d cold draws", hot, cold)
			}
			if c.hotStart > 0 && c.pages > 1 && wrapped == 0 {
				t.Fatal("no draw wrapped past the region's end")
			}
		})
	}
}

// TestHeapRestoreRejectsBadGeometry feeds heapRegion.snapshot snapshots
// whose geometry would break draw and expects an error, not a panic.
func TestHeapRestoreRejectsBadGeometry(t *testing.T) {
	os := bootOS(t)
	h := mustHeapRegion(t, os, 100, 30, 0.7)
	for _, c := range []struct {
		name   string
		mutate func(g *heapRegion)
	}{
		{"start-at-pages-zero-hot", func(g *heapRegion) { g.hotStart, g.hotPages = g.pages, 0 }},
		{"start-at-pages", func(g *heapRegion) { g.hotStart = g.pages }},
		{"zero-hot", func(g *heapRegion) { g.hotPages = 0 }},
		{"hot-over-pages", func(g *heapRegion) { g.hotPages = g.pages + 1 }},
		{"pages-resized", func(g *heapRegion) { g.pages = 200; g.hotStart = 150 }},
		{"frac-negative", func(g *heapRegion) { g.hotFrac = -0.1 }},
		{"frac-over-one", func(g *heapRegion) { g.hotFrac = 1.5 }},
		{"frac-nan", func(g *heapRegion) { g.hotFrac = math.NaN() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			bad := *h
			c.mutate(&bad)
			fresh := mustHeapRegion(t, os, 100, 30, 0.7)
			if err := restoreHeap(t, &bad, fresh, os); err == nil {
				t.Fatal("restore accepted a corrupt geometry")
			}
		})
	}
	good := *h
	good.hotStart = good.pages - 1
	fresh := mustHeapRegion(t, os, 100, 30, 0.7)
	if err := restoreHeap(t, &good, fresh, os); err != nil {
		t.Fatalf("restore rejected a valid geometry: %v", err)
	}
	// An index at or past pages would fault on the count array.
	fresh.draw(1000, 1)
	var sum uint32
	for _, n := range fresh.counts {
		sum += n
	}
	if sum != 1000 {
		t.Fatalf("restored region drew %d accesses, want 1000", sum)
	}
}

// restoreHeap encodes src's run state and reads it back into dst.
func restoreHeap(t *testing.T, src, dst *heapRegion, os *guestos.OS) error {
	t.Helper()
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.State("heap", func(c *snapshot.Codec) error { return src.snapshot(c, os) }); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := snapshot.Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return r.State("heap", func(c *snapshot.Codec) error { return dst.snapshot(c, os) })
}

// guestState is os's complete SnapshotState encoding.
func guestState(t *testing.T, os *guestos.OS) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.State("guestos", func(c *snapshot.Codec) error { return os.SnapshotState(c, nil) }); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func assertScratchClear(t *testing.T, h *heapRegion) {
	t.Helper()
	for i, n := range h.counts {
		if n != 0 {
			t.Fatalf("counts[%d] = %d after touch", i, n)
		}
	}
	for w, word := range h.touched {
		if word != 0 {
			t.Fatalf("touched word %d = %#x after touch", w, word)
		}
	}
}

// TestTouchClearsScratchOnError checks that a failing TouchVPN (the
// region's VMA is gone) still leaves the scratch zeroed.
func TestTouchClearsScratchOnError(t *testing.T) {
	os := bootOS(t)
	r := mustHeapRegion(t, os, 200, 50, 0.9)
	if err := os.AS.Munmap(r.vma.ID); err != nil {
		t.Fatal(err)
	}
	if err := r.touch(os, 300, 4, 0.5); err == nil {
		t.Fatal("touch of an unmapped region succeeded")
	}
	assertScratchClear(t, r)
}

// TestTouchZeroAlloc pins a steady-state touch (every page already
// faulted in) at zero allocations.
func TestTouchZeroAlloc(t *testing.T) {
	os := bootOS(t)
	r := mustHeapRegion(t, os, 2048, 2048, 1.0)
	for i := uint64(0); i < r.pages; i++ {
		if _, err := os.TouchVPN(r.vma.Start+guestos.VPN(i), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := r.touch(os, touchSamples, 4, 0.3); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("touch allocated %.1f times per run", n)
	}
}

func TestSequentialRegionWraps(t *testing.T) {
	os := bootOS(t)
	sr, err := newSequentialRegion(os, 10, guestos.FileID(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.sweep(os, 25, 1); err != nil {
		t.Fatal(err)
	}
	if sr.cursor.Pos() != 5 {
		t.Fatalf("cursor = %d after wrap, want 5", sr.cursor.Pos())
	}
	if err := sr.touchRange(os, 8, 4, 1); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() uint64 {
		os := bootOS(t)
		w, _ := ByName("Redis", Config{Seed: 9})
		if err := w.Init(os); err != nil {
			t.Fatal(err)
		}
		var faults uint64
		for i := 0; i < 8; i++ {
			w.Step(os)
			os.EndEpoch()
			faults += os.DrainEpoch().Faults
		}
		return faults
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

func newTestRNG() *sim.RNG { return sim.NewRNG(99) }
