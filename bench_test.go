// Package heteroos's root benchmarks: single-hot-path micro-benchmarks
// to compare with benchstat before and after a change, and ablation
// benchmarks for the design choices DESIGN.md §6 calls out. End-to-end
// timing is perfbench's job (`make perf-gate`); a whole artifact is
// profiled with `heterobench -exp ID -quick -cpuprofile F`.
//
//	go test -run=NONE -bench=. -benchmem
package heteroos

import (
	"context"
	"io"
	"strings"
	"testing"

	"heteroos/internal/core"
	"heteroos/internal/guestos"
	"heteroos/internal/memsim"
	"heteroos/internal/obs"
	"heteroos/internal/policy"
	"heteroos/internal/sim"
	"heteroos/internal/vmm"
	"heteroos/internal/workload"
)

// --- Ablations: the design choices DESIGN.md calls out ---

// runGraphChi runs GraphChi at 1/4 FastMem under mode with optional
// config tweaks.
func runGraphChi(b *testing.B, mode policy.Mode, mutate func(*core.Config)) *core.VMResult {
	b.Helper()
	w, err := workload.ByName("GraphChi", workload.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	slow := workload.Config{}.Pages(8 * workload.GiB)
	cfg := core.Config{
		FastFrames: slow/4 + slow + 8192,
		SlowFrames: slow + 8192,
		Seed:       1,
		VMs: []core.VMConfig{{
			ID: 1, Mode: mode, Workload: w,
			FastPages: slow / 4, SlowPages: slow,
		}},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	sys, err := core.Run(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return &sys.VMs[0].Res
}

// BenchmarkAblationEagerVsLazyLRU contrasts HeteroOS-LRU's eager
// type-aware reclaim against plain on-demand placement (the lazy
// whole-system-pressure behaviour of stock kernels).
func BenchmarkAblationEagerVsLazyLRU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eager := runGraphChi(b, policy.HeteroOSLRU(), nil)
		lazy := runGraphChi(b, policy.HeapIOSlabOD(), nil)
		if i == 0 {
			b.Logf("eager (HeteroOS-LRU): %.2fs; lazy (placement only): %.2fs",
				eager.RuntimeSeconds(), lazy.RuntimeSeconds())
		}
	}
}

// BenchmarkAblationAdaptiveInterval contrasts Equation 1's LLC-driven
// scan interval against a fixed 100 ms cadence.
func BenchmarkAblationAdaptiveInterval(b *testing.B) {
	fixed := policy.HeteroOSCoordinated()
	fixed.AdaptiveInterval = false
	fixed.Name = "coordinated-fixed-interval"
	for i := 0; i < b.N; i++ {
		adaptive := runGraphChi(b, policy.HeteroOSCoordinated(), nil)
		fixedRes := runGraphChi(b, fixed, nil)
		if i == 0 {
			b.Logf("adaptive interval: %.2fs (scan %.2fs); fixed 100ms: %.2fs (scan %.2fs)",
				adaptive.RuntimeSeconds(), adaptive.ScanCostNs/1e9,
				fixedRes.RuntimeSeconds(), fixedRes.ScanCostNs/1e9)
		}
	}
}

// BenchmarkAblationScanBatch sweeps the hotness-scan batch size
// (Figure 8's knob) for the VMM-exclusive baseline.
func BenchmarkAblationScanBatch(b *testing.B) {
	for _, batch := range []int{128, 256, 512} {
		batch := batch
		b.Run("batch"+itoa(batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runGraphChi(b, policy.VMMExclusive(), func(c *core.Config) {
					c.ScanBatchPages = batch
				})
				if i == 0 {
					b.Logf("batch=%d: %.2fs scan=%.2fs migrations=%d",
						batch, r.RuntimeSeconds(), r.ScanCostNs/1e9, r.VMMMigrations)
				}
			}
		})
	}
}

// BenchmarkAblationDRFWeights contrasts weighted vs unweighted DRF on
// the Figure 13 contention scenario.
func BenchmarkAblationDRFWeights(b *testing.B) {
	// Exercised through the drf package directly: the weighting decides
	// whether a small FastMem holding can be dominant at all.
	for i := 0; i < b.N; i++ {
		dominantWith := dominantResource(b, [2]float64{2, 1})
		dominantWithout := dominantResource(b, [2]float64{1, 1})
		if i == 0 {
			b.Logf("dominant resource with weights (2,1): %d; unweighted: %d",
				dominantWith, dominantWithout)
		}
	}
}

func dominantResource(b *testing.B, w [2]float64) int {
	b.Helper()
	machine := memsim.NewMachine(4096, 65536, memsim.FastTierSpec(), memsim.SlowTierSpec())
	share, err := vmm.NewDRFShare(machine, [memsim.NumTiers]float64{w[0], w[1]})
	if err != nil {
		b.Fatal(err)
	}
	m := vmm.New(machine, share)
	spec := vmm.VMSpec{ID: 1}
	spec.MaxPages[memsim.FastMem] = 4096
	spec.MaxPages[memsim.SlowMem] = 65536
	vmh, err := m.CreateVM(spec)
	if err != nil {
		b.Fatal(err)
	}
	vmh.Populate(memsim.FastMem, 1024) // 1/4 of FastMem
	vmh.Populate(memsim.SlowMem, 8192) // 1/8 of SlowMem
	// Dominant: with weight 2, fast share = 2*(1024/4096) = 0.5 beats
	// slow 0.125; unweighted fast 0.25 still beats 0.125 here, so use
	// the share value to discriminate in the log output.
	if share.DominantShare(1) > 0.3 {
		return int(memsim.FastMem)
	}
	return int(memsim.SlowMem)
}

// BenchmarkAllocatorFastPath measures the multi-dimensional per-CPU
// free-list hit path against buddy-only allocation — the Section 3.1
// "significantly boosts the allocation performance" claim.
func BenchmarkAllocatorFastPath(b *testing.B) {
	src := benchSource(b)
	os, err := guestos.New(guestos.Config{
		CPUs: 4, Aware: true,
		FastMaxPages: 32768, SlowMaxPages: 32768,
		BootFastPages: 32768, BootSlowPages: 32768,
		Placement: benchPlacement(),
		Source:    src, TierOf: src.TierOf, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	vma, err := os.AS.Mmap(16384, guestos.KindAnon, guestos.NilFile)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vpn := vma.Start + guestos.VPN(i%16384)
		if _, err := os.TouchVPN(vpn, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuddySplitCoalesce measures raw buddy allocator churn.
func BenchmarkBuddySplitCoalesce(b *testing.B) {
	src := benchSource(b)
	os, err := guestos.New(guestos.Config{
		CPUs: 1, Aware: true,
		FastMaxPages: 65536, SlowMaxPages: 1024,
		BootFastPages: 65536, BootSlowPages: 1024,
		Placement: benchPlacement(),
		Source:    src, TierOf: src.TierOf, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	buddy := os.Node(memsim.FastMem).Buddy
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := buddy.Alloc(4)
		if err != nil {
			b.Fatal(err)
		}
		buddy.Free(p, 4)
	}
}

// BenchmarkHotScan measures one access-bit scan pass over a guest span.
func BenchmarkHotScan(b *testing.B) {
	src := benchSource(b)
	os, err := guestos.New(guestos.Config{
		CPUs: 1, Aware: false,
		FastMaxPages: 16384, SlowMaxPages: 49152,
		BootFastPages: 16384, BootSlowPages: 49152,
		Placement: guestos.PlacementConfig{Name: "bench"},
		Source:    src, TierOf: src.TierOf, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	sc := vmm.NewScanner(os, vmm.DefaultScanCosts())
	sc.BatchPages = 512
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.ScanNext()
	}
}

// benchScanNextEpoch measures one whole-epoch ScanNext pass (BatchPages
// = full guest span, 64K PFNs) in steady state: a 2048-page hot set
// spread across the resident region is re-touched before every pass
// (untimed), so each timed pass consumes real access bits and decays
// real heat while most bitmap words stay all-zero — the shape the
// word-at-a-time scan exploits.
func BenchmarkScanNextWord(b *testing.B) {
	src := benchSource(b)
	osys, err := guestos.New(guestos.Config{
		CPUs: 1, Aware: false,
		FastMaxPages: 16384, SlowMaxPages: 49152,
		BootFastPages: 16384, BootSlowPages: 49152,
		Placement: guestos.PlacementConfig{Name: "bench"},
		Source:    src, TierOf: src.TierOf, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	vma, err := osys.AS.Mmap(24576, guestos.KindAnon, guestos.NilFile)
	if err != nil {
		b.Fatal(err)
	}
	touchHotSet := func() {
		for j := 0; j < 2048; j++ {
			if _, err := osys.TouchVPN(vma.Start+guestos.VPN(j*12), 1, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	sc := vmm.NewScanner(osys, vmm.DefaultScanCosts())
	sc.BatchPages = int(osys.NumPFNs())
	// Warm to steady-state heat before timing.
	for round := 0; round < 8; round++ {
		touchHotSet()
		sc.ScanNext()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		touchHotSet()
		b.StartTimer()
		res := sc.ScanNext()
		if res.Scanned != int(osys.NumPFNs()) || res.Referenced == 0 {
			b.Fatalf("scan shape wrong: %+v", res)
		}
	}
}

// benchRankingScanners builds the BenchmarkHotScan guest shape (64K
// PFNs, fully boot-populated across both tiers) with a heated working
// set spanning the tiers, and returns its frame source and a scanner
// over it with the heat-bucket index attached. The index is attached before any heat
// builds up, so it tracks every sample incrementally like a production
// run.
func benchRankingScanner(tb testing.TB) (*benchFrameSource, *vmm.Scanner) {
	tb.Helper()
	src := benchSource(tb)
	os, err := guestos.New(guestos.Config{
		CPUs: 1, Aware: false,
		FastMaxPages: 16384, SlowMaxPages: 49152,
		BootFastPages: 16384, BootSlowPages: 49152,
		Placement: guestos.PlacementConfig{Name: "bench"},
		Source:    src, TierOf: src.TierOf, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	indexed := vmm.NewScanner(os, vmm.DefaultScanCosts())
	indexed.BatchPages = int(os.NumPFNs())
	os.SetPageIndexer(vmm.NewHeatIndex(indexed, src.TierOf))
	// Heat a working set wide enough to land in both tiers.
	vma, err := os.AS.Mmap(24576, guestos.KindAnon, guestos.NilFile)
	if err != nil {
		tb.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < 24576; i++ {
			if _, err := os.TouchVPN(vma.Start+guestos.VPN(i), 1, 0); err != nil {
				tb.Fatal(err)
			}
		}
		indexed.ScanNext()
	}
	return src, indexed
}

// BenchmarkHottestIn times the ranking query that feeds every migration
// pass: an O(k) heat-bucket walk.
func BenchmarkHottestIn(b *testing.B) {
	_, sc := benchRankingScanner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := sc.HottestIn(memsim.SlowMem, 64); len(got) == 0 {
			b.Fatal("no hot pages ranked")
		}
	}
}

// BenchmarkColdestIn is the demotion-side counterpart.
func BenchmarkColdestIn(b *testing.B) {
	_, sc := benchRankingScanner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := sc.ColdestIn(memsim.SlowMem, 64); len(got) == 0 {
			b.Fatal("no cold pages ranked")
		}
	}
}

// --- bench plumbing ---

type benchFrameSource struct {
	m *memsim.Machine
}

func benchSource(tb testing.TB) *benchFrameSource {
	tb.Helper()
	return &benchFrameSource{
		m: memsim.NewMachine(1<<20, 1<<20, memsim.FastTierSpec(), memsim.SlowTierSpec()),
	}
}

func (s *benchFrameSource) TierOf(m memsim.MFN) memsim.Tier { return s.m.TierOf(m) }

func (s *benchFrameSource) Populate(t memsim.Tier, want uint64) []memsim.MFN {
	fs, err := s.m.Alloc(t, want, 1)
	if err != nil {
		return nil
	}
	return fs
}

func (s *benchFrameSource) PopulateAny(want uint64) []memsim.MFN {
	out := s.Populate(memsim.SlowMem, want)
	if uint64(len(out)) < want {
		out = append(out, s.Populate(memsim.FastMem, want-uint64(len(out)))...)
	}
	return out
}

func (s *benchFrameSource) Release(mfns []memsim.MFN) { s.m.Free(mfns, 1) }

func benchPlacement() guestos.PlacementConfig {
	pl := guestos.PlacementConfig{Name: "bench", OnDemand: true}
	pl.FastKinds[guestos.KindAnon] = true
	return pl
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationWriteAwareMigration contrasts the Section 4.3
// write-aware extension against plain coordinated migration on a
// store-dominated workload over NVM-class SlowMem (L:5 with 2x store
// penalty): write-bit tracking should steer the writers into FastMem.
func BenchmarkAblationWriteAwareMigration(b *testing.B) {
	run := func(mode policy.Mode) *core.VMResult {
		w := workload.NewWriteHeavy(workload.Config{Seed: 2}, 512*workload.MiB)
		fast := workload.Config{}.Pages(192 * workload.MiB)
		slow := workload.Config{}.Pages(2 * workload.GiB)
		sys, err := core.Run(context.Background(), core.Config{
			FastFrames: fast + slow + 4096,
			SlowFrames: slow + 4096,
			Seed:       2,
			VMs: []core.VMConfig{{
				ID: 1, Mode: mode, Workload: w,
				FastPages: fast, SlowPages: slow,
			}},
		})
		if err != nil {
			b.Fatal(err)
		}
		return &sys.VMs[0].Res
	}
	for i := 0; i < b.N; i++ {
		plain := run(policy.HeteroOSCoordinated())
		aware := run(policy.HeteroOSCoordinatedNVM())
		if i == 0 {
			b.Logf("coordinated: %.2fs (memF=%.1f memS=%.1f os=%.1f dem=%d pro=%d); write-aware: %.2fs (memF=%.1f memS=%.1f os=%.1f dem=%d pro=%d) gain %.1f%%",
				plain.RuntimeSeconds(), plain.MemTime[0].Seconds(), plain.MemTime[1].Seconds(), plain.OSTime.Seconds(), plain.Demotions, plain.Promotions,
				aware.RuntimeSeconds(), aware.MemTime[0].Seconds(), aware.MemTime[1].Seconds(), aware.OSTime.Seconds(), aware.Demotions, aware.Promotions,
				(plain.RuntimeSeconds()/aware.RuntimeSeconds()-1)*100)
		}
	}
}

// --- Machine-model backends: epoch-pricing throughput ---

// benchEpochPricing streams a varied epoch-charge mix through one
// backend's full pricing path — the LLC rescale plus Charge, exactly
// what core.System.stepVM pays per VM per epoch. Most of it goes to the
// power-law MPKI rescale and the per-tier store visibility model.
func BenchmarkEpochPricingAnalytic(b *testing.B) {
	m := memsim.NewMachine(4096, 4096, memsim.FastTierSpec(), memsim.SlowTierSpec())
	be := memsim.AnalyticBackend(m)
	llc := memsim.DefaultLLC()
	// One representative GraphChi-like epoch, cache-hot: mixed-tier
	// load/store traffic with a working set well past the LLC so the
	// analytic power-law rescale runs its full path. The interface
	// boundary keeps both calls opaque to the compiler.
	ch := memsim.EpochCharge{
		Instr: 2_500_000_000, Threads: 8, MLP: 2.5,
		BytesPerMiss: 48, StoreVisibleFrac: 0.35, OSTime: 1_000_000,
	}
	ch.Traffic[memsim.FastMem] = memsim.TierTraffic{LoadMisses: 30_000_000, StoreMisses: 9_000_000}
	ch.Traffic[memsim.SlowMem] = memsim.TierTraffic{LoadMisses: 8_000_000, StoreMisses: 2_000_000}
	const wssBytes = 6 << 30
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += be.EffectiveMPKI(llc, 14.2, wssBytes)
		sink += float64(be.Charge(ch).Total)
	}
	benchPricingSink = sink
}

var benchPricingSink float64

// --- Observability: instrumented hot paths stay allocation-free ---

// TestInstrumentedChokepointsZeroAlloc extends the allocation
// assertions to the observability-instrumented chokepoints: with a live
// obs handle and a no-op sink attached (so every probe writes into the
// ring, which flushes as it fills), the scan, ranking, engine-charge,
// and guest-touch hot paths must stay 0 allocs/op.
func TestInstrumentedChokepointsZeroAlloc(t *testing.T) {
	handle := obs.New()
	handle.AddSink(nopSink{})
	scope := handle.Scope(1, func() sim.Duration { return 0 })

	src, indexed := benchRankingScanner(t)
	indexed.AttachObs(scope)
	eng := memsim.NewAnalytic(src.m, memsim.WithObs(handle.Metrics))
	charge := memsim.EpochCharge{Instr: 1 << 20, Threads: 1, MLP: 1, BytesPerMiss: 64}
	charge.Traffic[memsim.FastMem] = memsim.TierTraffic{LoadMisses: 1000, StoreMisses: 100}
	charge.Traffic[memsim.SlowMem] = memsim.TierTraffic{LoadMisses: 500, StoreMisses: 50}

	// The allocator fast path with probes attached (aware guest, anon
	// pages steered to FastMem): steady-state touches of present pages.
	src2 := benchSource(t)
	osys, err := guestos.New(guestos.Config{
		CPUs: 4, Aware: true,
		FastMaxPages: 32768, SlowMaxPages: 32768,
		BootFastPages: 32768, BootSlowPages: 32768,
		Placement: benchPlacement(),
		Source:    src2, TierOf: src2.TierOf, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	osys.AttachObs(handle.Scope(2, func() sim.Duration { return 0 }))
	vma, err := osys.AS.Mmap(16384, guestos.KindAnon, guestos.NilFile)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16384; i++ { // fault everything in once
		if _, err := osys.TouchVPN(vma.Start+guestos.VPN(i), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	var vpn int
	paths := map[string]func(){
		"Scanner.ScanNext":  func() { indexed.ScanNext() },
		"Scanner.HottestIn": func() { indexed.HottestIn(memsim.SlowMem, 64) },
		"Scanner.ColdestIn": func() { indexed.ColdestIn(memsim.SlowMem, 64) },
		"Engine.Charge":     func() { eng.Charge(charge) },
		"OS.TouchVPN": func() {
			vpn = (vpn + 1) % 16384
			if _, err := osys.TouchVPN(vma.Start+guestos.VPN(vpn), 1, 0); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, fn := range paths {
		fn() // warm scratch buffers
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %v per op with obs attached, want 0", name, n)
		}
	}
}

// nopSink accepts and discards every batch without allocating.
type nopSink struct{}

func (nopSink) WriteBatch([]obs.Event) error { return nil }
func (nopSink) Close() error                 { return nil }

// --- Observability: OpenMetrics encoding ---

// benchObsRegistry builds one registry shaped like a scenario run:
// vms per-VM scopes, each with the guest/vmm counter+gauge families and
// the phase histograms, loaded with n observations per scope.
func benchObsRegistry(vms, n int) *obs.Registry {
	r := obs.NewRegistry()
	r.Counter("memsim.charges").Add(3)
	for vm := 0; vm < vms; vm++ {
		s := r.Scope("vm" + string(rune('0'+vm%10)) + string(rune('a'+vm/10)))
		promo := s.Counter("guestos.promotions")
		gauge := s.Gauge("vmm.fast_free_pct")
		hist := s.Histogram("phase.scan.wall_ns")
		for i := 0; i < n; i++ {
			promo.Add(uint64(i & 7))
			gauge.Set(float64(i))
			hist.Observe(float64((i*2654435761)&0xfffff + 1))
		}
	}
	return r
}

// BenchmarkObsOpenMetricsEncode renders a scenario-sized snapshot to
// the OpenMetrics exposition format — the per-scrape cost of the
// -listen endpoint.
func BenchmarkObsOpenMetricsEncode(b *testing.B) {
	snap := benchObsRegistry(16, 512).Snapshot()
	sink := &obs.OpenMetricsSink{Run: "bench"}
	var sb strings.Builder
	if err := sink.WriteSnapshot(&sb, snap); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(sb.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sink.WriteSnapshot(io.Discard, snap); err != nil {
			b.Fatal(err)
		}
	}
}
