package vmm

import (
	"math/bits"
	"time"

	"heteroos/internal/guestos"
	"heteroos/internal/memsim"
	"heteroos/internal/obs"
	"heteroos/internal/sim"
)

// ScanCosts prices the software hotness-tracking machinery. The paper's
// Observation 4: the page table must be scanned frequently, TLB entries
// must be flushed even just to track (forcing page-table references),
// and the whole thing stalls a core.
type ScanCosts struct {
	// PTEScanNs is the cost of visiting one PTE: locate via reverse map,
	// read + reset the access bit.
	PTEScanNs float64
	// TLBFlushNs is one shootdown; one is issued per FlushBatchPages
	// scanned so the hardware re-sets access bits on reference.
	TLBFlushNs      float64
	FlushBatchPages int
	// TLBRefillNs approximates the guest-visible slowdown from the
	// induced TLB misses, per scanned page.
	TLBRefillNs float64
}

// DefaultScanCosts is calibrated so a 100 ms / 32K-page scan cadence on a
// GraphChi-sized VM lands in Figure 8's 40-60% overhead band and a
// 500 ms cadence near 30%.
func DefaultScanCosts() ScanCosts {
	return ScanCosts{
		PTEScanNs:       250,
		TLBFlushNs:      12000,
		FlushBatchPages: 512,
		TLBRefillNs:     150,
	}
}

// Scaled adapts the cost model to a capacity-scaled simulation: one
// simulated page stands for factor real pages, so per-page costs grow by
// factor and the flush batch (counted in simulated pages) shrinks.
func (c ScanCosts) Scaled(factor float64) ScanCosts {
	if factor <= 0 {
		factor = 1
	}
	out := c
	out.PTEScanNs *= factor
	out.TLBRefillNs *= factor
	out.FlushBatchPages = int(float64(c.FlushBatchPages) / factor)
	if out.FlushBatchPages < 1 {
		out.FlushBatchPages = 1
	}
	return out
}

// ScanResult reports one scan pass.
type ScanResult struct {
	Scanned    int
	Referenced int
	CostNs     float64
}

// Scanner is the VMM's hotness tracker. It keeps a per-page heat history
// (exponential decay of access-bit samples), mirroring HeteroVisor's
// batched tracking with a VMM-level reverse map. Scans consume the
// guest's access bits 64 pages per load, skipping words with no state
// to fold, while the simulated scan cost is still charged per page.
type Scanner struct {
	view  GuestView
	costs ScanCosts
	// cursor for full-span batched scanning (VMM-exclusive mode).
	cursor uint64
	// trackedPos is the rotation cursor for ScanTracked, carried as a
	// position within the tracked list (not a monotone counter: a counter
	// taken mod len re-anchors whenever the list length changes, which
	// re-scans the head pages and starves the tail).
	trackedPos int
	// index serves the ranking queries (HottestIn, ColdestIn,
	// CoolestIn); attach it with NewHeatIndex before the first query.
	index *HeatIndex
	// obs, when attached, carries the scanner's observability probes.
	obs *scannerProbes
	// phases, when attached, records ranking-query wall time into the
	// rank phase of the epoch profiler.
	phases *obs.PhaseProfiler
	// hotBuf/coldBuf back the ranking results. Two buffers because the
	// migrators hold a hot and a cold list simultaneously; a result is
	// valid until the next call of the same polarity.
	hotBuf, coldBuf []guestos.PFN
	// BatchPages bounds one ScanNext pass (HeteroVisor scans 16K-32K
	// guest pages per interval).
	BatchPages int
	// HotThreshold is the heat at which a page counts as hot
	// (promotion candidate).
	HotThreshold uint8
	// ColdThreshold is the heat at or below which a page counts as cold
	// (demotion candidate). The dead band between the thresholds is
	// hysteresis: pages of middling heat are never moved, which stops
	// promote/demote ping-pong at the boundary.
	ColdThreshold uint8
	// TrustGuestState lets the ranking consult guest page state (free,
	// kind). The VMM-exclusive baseline must leave this false: the
	// hypervisor cannot see deallocations, so it happily promotes pages
	// the guest already freed — "migrate pages marked for deletion only
	// polluting FastMem" (Section 4.1). Coordinated mode sets it true.
	TrustGuestState bool
	// TrackWrites additionally samples the write (PAGE_RW) bit on each
	// scan — the Section 4.3 extension for asymmetric (NVM-class)
	// SlowMem. It adds per-PTE cost: the paper warns that software
	// write-bit tracking "can add significant software overhead".
	TrackWrites bool
	// WriteBoost weights write-heat into the ranking score; set it to
	// roughly storeLatency/loadLatency - 1 of the slow tier.
	WriteBoost float64
}

// NewScanner builds a scanner over view.
func NewScanner(view GuestView, costs ScanCosts) *Scanner {
	return &Scanner{
		view:          view,
		costs:         costs,
		BatchPages:    32 * 1024,
		HotThreshold:  4,
		ColdThreshold: 1,
	}
}

// Heat reports the tracked heat of pfn.
func (s *Scanner) Heat(pfn guestos.PFN) uint8 { return s.view.ScanHeat(pfn) }

// score combines read heat with (optionally boosted) write heat: on
// asymmetric SlowMem a store-heavy page earns more from FastMem than an
// equally-referenced load-heavy one. Without an active write boost the
// score is the raw heat byte — returned directly so heat-index
// bucketing does no float conversion.
func (s *Scanner) score(pfn guestos.PFN) uint8 {
	if !s.TrackWrites || s.WriteBoost <= 0 {
		return s.view.ScanHeat(pfn)
	}
	h := float64(s.view.ScanHeat(pfn))
	h += s.WriteBoost * float64(s.view.ScanWriteHeat(pfn))
	if h > 255 {
		h = 255
	}
	return uint8(h)
}

// Hot reports whether pfn's heat crosses the threshold.
func (s *Scanner) Hot(pfn guestos.PFN) bool { return s.Heat(pfn) >= s.HotThreshold }

// ScanNext scans the next BatchPages of the whole guest span
// (VMM-exclusive mode: "tracking the entire guest-VM's memory").
func (s *Scanner) ScanNext() ScanResult {
	n := uint64(s.BatchPages)
	span := s.view.NumPFNs()
	if n > span {
		n = span
	}
	var res ScanResult
	// The batch may wrap the span end; scan each contiguous run.
	for remaining := n; remaining > 0; {
		start := s.cursor
		end := start + remaining
		if end > span {
			end = span
		}
		s.scanRangeWords(&res, start, end)
		remaining -= end - start
		s.cursor = end
		if s.cursor >= span {
			s.cursor = 0
		}
	}
	res.CostNs = s.scanCost(res.Scanned)
	if s.obs != nil {
		s.obs.record(res, obs.DirFull)
	}
	return res
}

// scanRangeWords scans PFNs [start, end): one masked load per 64-page
// word, folding heat only for pages with state to fold (a set access
// bit, or nonzero heat still decaying — all other pages' samples are
// no-ops by construction). Scanned and Referenced count every page in
// the range, as a per-page scan would.
func (s *Scanner) scanRangeWords(res *ScanResult, start, end uint64) {
	for w := int(start >> 6); w <= int((end-1)>>6); w++ {
		base := uint64(w) << 6
		lo := uint64(0)
		if start > base {
			lo = start - base
		}
		mask := ^uint64(0) << lo
		if hi := end - base; hi < 64 {
			mask &= 1<<hi - 1
		}
		s.scanWordMasked(res, w, mask)
	}
}

// scanWordMasked performs one word-granular scan step over the pages
// selected by mask in word w. Each selected page's heat halves and
// gains 4 if the page was referenced; with write tracking its write
// heat folds the write bit the same way.
func (s *Scanner) scanWordMasked(res *ScanResult, w int, mask uint64) {
	wv := s.view
	res.Scanned += bits.OnesCount64(mask)
	ref := wv.TakeScanAccessedWord(w, mask)
	res.Referenced += bits.OnesCount64(ref)
	// work is the set of pages whose heat state can change this pass.
	work := ref | wv.ScanHeatNonzeroWord(w, mask)
	var written uint64
	if s.TrackWrites {
		written = wv.TakeScanWrittenWord(w, mask)
		work |= written | wv.ScanWriteHeatNonzeroWord(w, mask)
	}
	base := uint64(w) << 6
	for work != 0 {
		b := uint(bits.TrailingZeros64(work))
		bit := uint64(1) << b
		work &^= bit
		pfn := guestos.PFN(base + uint64(b))
		h := s.view.ScanHeat(pfn) >> 1
		if ref&bit != 0 {
			h += 4
		}
		s.view.SetScanHeat(pfn, h)
		if s.TrackWrites {
			wh := s.view.ScanWriteHeat(pfn) >> 1
			if written&bit != 0 {
				wh += 4
			}
			s.view.SetScanWriteHeat(pfn, wh)
		}
	}
}

// ScanTracked scans only the guest-exported tracking list (coordinated
// mode: "the guest-OS exports a tracking list ... the VMM should track
// for hotness"), which is how coordination shrinks the tracking scope.
func (s *Scanner) ScanTracked(tracked []guestos.PFN) ScanResult {
	var res ScanResult
	n := len(tracked)
	if n == 0 {
		return res
	}
	limit := n
	if s.BatchPages > 0 && limit > s.BatchPages {
		limit = s.BatchPages
	}
	// Rotate through the list across calls. The cursor is a list
	// position, so a growing or shrinking tracked list continues from
	// (roughly) where the last pass stopped instead of re-anchoring.
	if s.trackedPos >= n {
		s.trackedPos %= n
	}
	start := s.trackedPos
	s.scanTrackedWords(&res, tracked, start, limit)
	s.trackedPos = (start + limit) % n
	res.CostNs = s.scanCost(res.Scanned)
	if s.obs != nil {
		s.obs.record(res, obs.DirTracked)
	}
	return res
}

// scanTrackedWords batches adjacent tracked entries that share a 64-page
// word into one masked scan step. Tracking lists are built by ascending
// VMA walks, so runs of neighbours are the common case. The merge never
// reorders or coalesces a repeated PFN: a bit already in the pending
// mask ends the group, so each list entry is scanned (and heat-folded)
// exactly as many times, in the same order, as a per-page walk would.
func (s *Scanner) scanTrackedWords(res *ScanResult, tracked []guestos.PFN, start, limit int) {
	n := len(tracked)
	curWord := -1
	var curMask uint64
	for i := 0; i < limit; i++ {
		pfn := tracked[(start+i)%n]
		w := int(pfn >> 6)
		bit := uint64(1) << (pfn & 63)
		if w == curWord && curMask&bit == 0 {
			curMask |= bit
			continue
		}
		if curWord >= 0 {
			s.scanWordMasked(res, curWord, curMask)
		}
		curWord, curMask = w, bit
	}
	if curWord >= 0 {
		s.scanWordMasked(res, curWord, curMask)
	}
}

func (s *Scanner) scanCost(pages int) float64 {
	if pages == 0 {
		return 0
	}
	perPTE := s.costs.PTEScanNs + s.costs.TLBRefillNs
	if s.TrackWrites {
		// Write-bit scanning visits and rewrites the PTE a second time.
		perPTE *= 1.5
	}
	// Ceiling division: a pass of exactly FlushBatchPages needs one
	// flush, not two.
	flushes := (pages + s.costs.FlushBatchPages - 1) / s.costs.FlushBatchPages
	return float64(pages)*perPTE + float64(flushes)*s.costs.TLBFlushNs
}

// HottestIn returns up to max tracked-hot pages currently backed by
// tier, hottest first, PFN order breaking ties. The result is served
// allocation-free from a reusable buffer, valid until the next
// HottestIn call.
func (s *Scanner) HottestIn(tier memsim.Tier, max int) []guestos.PFN {
	t0 := s.rankStart()
	s.hotBuf = s.index.descendInto(s.hotBuf[:0], tier, s.HotThreshold, s.TrustGuestState, max)
	s.rankDone(t0)
	return s.hotBuf
}

// ColdestIn returns up to max minimum-heat pages backed by tier,
// coldest first. The result shares CoolestIn's reusable buffer, valid
// until the next ColdestIn/CoolestIn call.
func (s *Scanner) ColdestIn(tier memsim.Tier, max int) []guestos.PFN {
	t0 := s.rankStart()
	s.coldBuf = s.index.ascendInto(s.coldBuf[:0], tier, s.ColdThreshold, s.TrustGuestState, max)
	s.rankDone(t0)
	return s.coldBuf
}

// CoolestIn returns up to max pages backed by tier in ascending score
// order with no threshold filter. The write-aware coordinator uses it
// when nothing is absolutely cold: on asymmetric memory a read-hot page
// can still be the right page to displace for a write-hot one, and the
// heat margin decides case by case.
func (s *Scanner) CoolestIn(tier memsim.Tier, max int) []guestos.PFN {
	t0 := s.rankStart()
	s.coldBuf = s.index.ascendInto(s.coldBuf[:0], tier, numHeatBuckets-1, s.TrustGuestState, max)
	s.rankDone(t0)
	return s.coldBuf
}

// rankStart and rankDone time a ranking query into the epoch
// profiler's rank phase when one is attached.
func (s *Scanner) rankStart() time.Time {
	if s.phases == nil {
		return time.Time{}
	}
	return time.Now()
}

func (s *Scanner) rankDone(t0 time.Time) {
	if s.phases != nil {
		s.phases.ObserveWallSince(obs.PhaseRank, t0)
	}
}

// AdaptiveInterval implements Equation 1: the scan/migration interval
// shrinks when LLC misses rise epoch-over-epoch and grows when they
// fall, clamped to [Min, Max]. HeteroOS-coordinated varies the interval
// from 50 ms to 1 s (Section 5.4).
type AdaptiveInterval struct {
	Min, Max sim.Duration
	cur      sim.Duration
	lastMiss float64
	primed   bool
}

// NewAdaptiveInterval starts at start within [min, max].
func NewAdaptiveInterval(min, max, start sim.Duration) *AdaptiveInterval {
	a := &AdaptiveInterval{Min: min, Max: max, cur: start}
	a.clamp()
	return a
}

func (a *AdaptiveInterval) clamp() {
	if a.cur < a.Min {
		a.cur = a.Min
	}
	if a.cur > a.Max {
		a.cur = a.Max
	}
}

// Current reports the interval in force.
func (a *AdaptiveInterval) Current() sim.Duration { return a.cur }

// Update folds the epoch's LLC miss count:
//
//	ΔLLCMiss = (miss_i − miss_{i−1}) / miss_{i−1}
//	Interval = Interval − ΔLLCMiss × Interval
func (a *AdaptiveInterval) Update(llcMisses float64) sim.Duration {
	if !a.primed {
		a.primed = true
		a.lastMiss = llcMisses
		return a.cur
	}
	if a.lastMiss > 0 {
		delta := (llcMisses - a.lastMiss) / a.lastMiss
		a.cur = a.cur - sim.Duration(delta*float64(a.cur))
		a.clamp()
	}
	a.lastMiss = llcMisses
	return a.cur
}
