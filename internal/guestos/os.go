package guestos

import (
	"fmt"
	"slices"

	"heteroos/internal/guestos/pagecache"
	"heteroos/internal/guestos/slab"
	"heteroos/internal/memsim"
	"heteroos/internal/obs"
	"heteroos/internal/sim"
)

// BalloonShortfallError reports a populate request the balloon back-end
// did not honour in full: the front-end asked the VMM for Want frames of
// Tier and received only Got. Boot-time reservations fail with it;
// runtime shortfalls are surfaced as EvBalloonRefused events instead of
// silently under-reserving (the allocator then spills to the other
// tier, which the placement stats record).
type BalloonShortfallError struct {
	Tier      memsim.Tier
	Want, Got uint64
}

// Error implements error.
func (e *BalloonShortfallError) Error() string {
	return fmt.Sprintf("guestos: balloon back-end granted %d/%d %v frames", e.Got, e.Want, e.Tier)
}

// FrameSource is the VMM-side back-end of the on-demand allocation
// driver (Figure 5, steps 1-3): the guest requests machine frames of a
// specific memory type, and returns them under memory pressure.
type FrameSource interface {
	// Populate grants up to want frames of tier t; fewer (or none) when
	// the VMM's share policy denies the request.
	Populate(t memsim.Tier, want uint64) []memsim.MFN
	// PopulateAny grants frames of whatever tiers the VMM chooses;
	// used by heterogeneity-unaware guests whose single node cannot
	// express a type (the VMM-exclusive baseline).
	PopulateAny(want uint64) []memsim.MFN
	// Release returns frames to the VMM.
	Release(mfns []memsim.MFN)
}

// PageIndexer observes the page-state transitions that affect an
// external hotness index: backing-frame changes, scanner heat updates,
// and alloc/free transitions. The VMM's heat-bucket index implements it;
// the OS calls each hook from the single chokepoint that performs the
// corresponding mutation, so an attached indexer sees every change.
type PageIndexer interface {
	// PageBacked fires when pfn gains or swaps its backing frame
	// (population, transparent migration).
	PageBacked(pfn PFN, mfn memsim.MFN)
	// PageUnbacked fires when pfn loses its backing frame (balloon
	// release).
	PageUnbacked(pfn PFN)
	// PagesHeatChanged fires when the scan heat or scan write-heat of
	// the pages set in changed changed; bit i of changed stands for PFN
	// w*64+i. A scan pass reports a 64-page word at once, other
	// updates one page.
	PagesHeatChanged(w int, changed uint64)
	// PageFreeChanged fires when pfn transitions between free and in-use.
	PageFreeChanged(pfn PFN, free bool)
}

// Config configures one guest OS instance.
type Config struct {
	// Aware selects heterogeneity-aware mode: one NUMA node per memory
	// type. When false the guest has a single node and the VMM manages
	// placement transparently (HeteroVisor model).
	Aware bool
	// FastMaxPages / SlowMaxPages bound each node's span. In transparent
	// mode the single node spans FastMaxPages+SlowMaxPages.
	FastMaxPages, SlowMaxPages uint64
	// BootFastPages / BootSlowPages are populated at boot.
	BootFastPages, BootSlowPages uint64
	// Placement is the policy knob set.
	Placement PlacementConfig
	// Source provides machine frames.
	Source FrameSource
	// TierOf resolves a machine frame to its tier (Machine.TierOf).
	TierOf func(memsim.MFN) memsim.Tier
	// Costs prices software operations; zero value takes DefaultCosts.
	Costs CostModel
	// Seed derives the OS-private RNG.
	Seed uint64
}

// EpochStats is what the OS accumulates during an epoch for the pricing
// engine and experiment harness. Counters are cumulative within the
// epoch and reset by DrainEpoch.
type EpochStats struct {
	// UserLoads/UserStores are application page touches by tier.
	UserLoads, UserStores [memsim.NumTiers]uint64
	// KernelCopyBytes is data the kernel moved through pages of each
	// tier (I/O copies, network buffer copies); priced at tier bandwidth.
	KernelCopyBytes [memsim.NumTiers]float64
	// OSTimeNs is tier-independent software time (faults, allocator,
	// balloon, migration walks/copies, disk waits).
	OSTimeNs float64
	// Event counters.
	Faults, SwapIns, SwapOuts     uint64
	Demotions, Promotions         uint64
	CacheEvictions                uint64
	DiskReadPages, DiskWritePages uint64
	BalloonPagesIn                uint64
	// BalloonRefusedPages counts frames the balloon back-end declined to
	// grant (populate shortfall), whether from share-policy denial, pool
	// exhaustion, or an injected refusal fault.
	BalloonRefusedPages uint64
	MigrationsSkipped   uint64
}

// CumulativeStats track whole-run totals for the census figures.
type CumulativeStats struct {
	AllocsByKind [NumKinds]uint64
	FreesByKind  [NumKinds]uint64
}

const (
	populateBatchPages = 512
	reclaimBatchPages  = 128
	statsWindowEpochs  = 4
	writebackPerEpoch  = 1024
)

// OS is one guest VM's operating system memory manager.
type OS struct {
	cfg   Config
	costs CostModel
	rng   *sim.RNG

	store *PageStore
	nodes []*Node    // aware: [FastMem, SlowMem]; transparent: [all]
	lrus  []*PageLRU // parallel to nodes
	// unpopulated tracks depopulated span slots (PFNs, narrowed) per
	// node, popped in LIFO order for repopulation.
	unpopulated [][]uint32

	AS    *AddrSpace
	PC    *pagecache.Cache
	Slabs [NumSlabs]*slab.Cache
	swap  *swapSpace

	// indexer, when attached, mirrors page state into the VMM's
	// heat-bucket index.
	indexer PageIndexer
	// obs, when attached, carries the preregistered observability
	// probes (see probe.go); nil means observability is off.
	obs *osProbes
	// trackBuf backs TrackingList so the per-pass export allocates
	// nothing in steady state. trackGen/trackValid cache the list
	// against the address space's mapping generation, so repeat passes
	// with no mapping churn skip the VMA walk entirely.
	trackBuf   []PFN
	trackGen   uint64
	trackValid bool
	// balanceBuf backs the LRU BalanceInto calls in EndEpoch and reclaim.
	balanceBuf []PFN
	// ioBuf backs the frames a page-cache Read, Write or Writeback
	// touches, so file I/O allocates nothing in steady state.
	ioBuf []uint64

	epoch      uint32
	ep         EpochStats
	Cum        CumulativeStats
	Window     AllocStats // demand window for prioritisation & Figure 10
	WindowLife AllocStats // whole-run alloc stats (never reset)

	// netRefs holds live network buffer objects between NetRecv/NetSend
	// calls within an epoch.
	netRefs []slab.ObjRef

	// Admission-value tracking: reclaiming FastMem to admit allocations
	// only pays off when admitted pages actually become hot. The OS
	// samples recent FastMem admissions and measures how many were
	// activated a few epochs later; reclaim throttles itself when the
	// admission hit rate collapses (e.g. a cold fault stream), exactly
	// the case where demoting resident pages for new arrivals is waste.
	admitRing []admitSample
	admitRate float64 // EWMA of activation rate; starts optimistic
	admitSeen int
	// Promotion-value tracking, same idea for coordinated promotions.
	promoteRing []admitSample
	promoteRate float64
	promoteSeen int
	// Demotion-regret tracking: a demoted page that is re-touched soon
	// was a wasted (harmful) move; reclaim throttles when regret climbs.
	demoteRing   []admitSample
	demoteRegret float64
	demoteSeen   int
}

// admitSample records one sampled FastMem admission.
type admitSample struct {
	pfn   PFN
	tag   uint64
	epoch uint32
}

// SlabID indexes the slab caches the OS creates at boot. The order is
// that of the caches' names, in which a checkpoint lists them.
type SlabID int

const (
	SlabDentry SlabID = iota // "dentry"
	SlabFSMeta               // "fsmeta": filesystem metadata (KindSlab pages)
	SlabInode                // "inode"
	SlabSkbuff               // "skbuff": network buffers (KindNetBuf pages)
	NumSlabs
)

// New boots a guest OS: builds nodes, populates boot reservations, and
// initialises every subsystem.
func New(cfg Config) (*OS, error) {
	if cfg.Source == nil || cfg.TierOf == nil {
		return nil, fmt.Errorf("guestos: Source and TierOf are required")
	}
	if (cfg.Costs == CostModel{}) {
		cfg.Costs = DefaultCosts()
	}
	o := &OS{
		cfg:         cfg,
		costs:       cfg.Costs,
		rng:         sim.NewRNG(cfg.Seed ^ 0x6865746572),
		swap:        newSwapSpace(),
		admitRate:   1, // optimistic until evidence accumulates
		promoteRate: 1,
	}

	if cfg.FastMaxPages > memsim.MaxFrames || cfg.SlowMaxPages > memsim.MaxFrames-cfg.FastMaxPages {
		return nil, fmt.Errorf("guestos: span of %d+%d pages exceeds MaxFrames %d",
			cfg.FastMaxPages, cfg.SlowMaxPages, uint64(memsim.MaxFrames))
	}
	total := cfg.FastMaxPages + cfg.SlowMaxPages
	o.store = NewPageStore(total)
	if cfg.Aware {
		fast := newNode(memsim.FastMem, 0, cfg.FastMaxPages)
		slow := newNode(memsim.SlowMem, PFN(cfg.FastMaxPages), cfg.SlowMaxPages)
		// HeteroOS-LRU per-memory-type thresholds: keep a small free
		// reserve in FastMem so bursts allocate without synchronous
		// reclaim.
		fast.LowWatermark = max(32, cfg.FastMaxPages/50)
		fast.HighWatermark = 2 * fast.LowWatermark
		o.nodes = []*Node{fast, slow}
	} else {
		n := newNode(memsim.FastMem, 0, total)
		o.nodes = []*Node{n}
	}
	o.lrus = make([]*PageLRU, len(o.nodes))
	o.unpopulated = make([][]uint32, len(o.nodes))
	for i, n := range o.nodes {
		o.lrus[i] = NewPageLRU(o.store)
		// Span slots in descending order so pops ascend.
		slots := make([]uint32, 0, n.MaxPages)
		for p := n.MaxPages; p > 0; p-- {
			slots = append(slots, uint32(uint64(n.Base)+p-1))
		}
		o.unpopulated[i] = slots
	}

	o.AS = newAddrSpace(o)
	o.PC = pagecache.New(total,
		func() (uint64, bool) {
			pfn, ok := o.allocPage(KindPageCache)
			return uint64(pfn), ok
		},
		func(pfn uint64) { o.freePage(PFN(pfn)) },
	)
	o.Slabs = [NumSlabs]*slab.Cache{
		SlabDentry: o.newSlabCache("dentry", 192, KindSlab),
		SlabFSMeta: o.newSlabCache("fsmeta", 4096, KindSlab),
		SlabInode:  o.newSlabCache("inode", 640, KindSlab),
		SlabSkbuff: o.newSlabCache("skbuff", 256, KindNetBuf),
	}

	// Boot reservation. A short grant here is a hard boot failure, and
	// the typed error lets the caller distinguish "back-end refused"
	// from config mistakes.
	if cfg.Aware {
		if got := o.populateNode(0, cfg.BootFastPages); got < cfg.BootFastPages {
			return nil, &BalloonShortfallError{Tier: memsim.FastMem, Want: cfg.BootFastPages, Got: got}
		}
		if got := o.populateNode(1, cfg.BootSlowPages); got < cfg.BootSlowPages {
			return nil, &BalloonShortfallError{Tier: memsim.SlowMem, Want: cfg.BootSlowPages, Got: got}
		}
	} else {
		want := cfg.BootFastPages + cfg.BootSlowPages
		if got := o.populateNode(0, want); got < want {
			return nil, &BalloonShortfallError{Tier: memsim.FastMem, Want: want, Got: got}
		}
	}
	return o, nil
}

func (o *OS) newSlabCache(name string, objSize int, kind PageKind) *slab.Cache {
	return slab.New(name, objSize, 1,
		func(n int) (uint64, bool) {
			// Slab pages are order-0 here (pagesPerSlab 1).
			pfn, ok := o.allocPage(kind)
			return uint64(pfn), ok
		},
		func(base uint64, n int) {
			for i := 0; i < n; i++ {
				o.freePage(PFN(base + uint64(i)))
			}
		})
}

// SetPageIndexer attaches (or detaches, with nil) a page-state observer.
// The caller is responsible for seeding the indexer from current state.
func (o *OS) SetPageIndexer(ix PageIndexer) { o.indexer = ix }

// Node returns the node exposing tier t (aware mode), or the single node.
func (o *OS) Node(t memsim.Tier) *Node {
	if !o.cfg.Aware {
		return o.nodes[0]
	}
	return o.nodes[t]
}

// LRUOf returns the LRU of the node exposing tier t.
func (o *OS) LRUOf(t memsim.Tier) *PageLRU {
	if !o.cfg.Aware {
		return o.lrus[0]
	}
	return o.lrus[t]
}

// Store exposes the page store to tests outside the package.
func (o *OS) Store() *PageStore { return o.store }

// NumPFNs reports the guest-physical span size.
func (o *OS) NumPFNs() uint64 { return o.store.Len() }

// TierOfPage resolves the tier currently backing pfn.
func (o *OS) TierOfPage(pfn PFN) memsim.Tier {
	mfn := o.store.MFN(pfn)
	if mfn == memsim.NilMFN {
		panic(fmt.Sprintf("guestos: tier of unpopulated pfn %d", pfn))
	}
	return o.cfg.TierOf(mfn)
}

func (o *OS) nodeIndexOf(pfn PFN) int {
	for i, n := range o.nodes {
		if n.Contains(pfn) {
			return i
		}
	}
	panic(fmt.Sprintf("guestos: pfn %d outside all nodes", pfn))
}

// populateNode asks the VMM for up to want frames for node idx and
// inserts them. Returns the number granted.
func (o *OS) populateNode(idx int, want uint64) uint64 {
	n := o.nodes[idx]
	slots := &o.unpopulated[idx]
	if want > uint64(len(*slots)) {
		want = uint64(len(*slots))
	}
	if want == 0 {
		return 0
	}
	var mfns []memsim.MFN
	if o.cfg.Aware {
		mfns = o.cfg.Source.Populate(n.Tier, want)
	} else {
		mfns = o.cfg.Source.PopulateAny(want)
	}
	// Consecutive slots reach the allocator as one run [lo, hi).
	var lo, hi PFN
	for _, mfn := range mfns {
		pfn := PFN((*slots)[len(*slots)-1])
		*slots = (*slots)[:len(*slots)-1]
		o.store.SetMFN(pfn, mfn)
		switch {
		case hi > lo && pfn == hi:
			hi++
		case hi > lo && pfn+1 == lo:
			lo--
		default:
			n.addPopulated(lo, uint64(hi-lo))
			lo, hi = pfn, pfn+1
		}
		if o.indexer != nil {
			o.indexer.PageBacked(pfn, mfn)
		}
	}
	n.addPopulated(lo, uint64(hi-lo))
	got := uint64(len(mfns))
	o.ep.BalloonPagesIn += got
	o.ep.OSTimeNs += float64(got) * o.costs.BalloonPerPageNs
	if o.obs != nil && got > 0 {
		o.obs.balloonIn.Add(got)
		o.obs.scope.Emit(obs.EvBalloon, obs.DirDeflate, o.nodeTierByte(idx),
			0, got, 0, float64(got)*o.costs.BalloonPerPageNs)
	}
	if got < want {
		// The back-end refused part of the request (share-policy denial,
		// pool exhaustion, or injected fault). Surface the shortfall
		// instead of silently under-reserving; allocation falls back to
		// the other tier and the placement stats record the spill.
		o.ep.BalloonRefusedPages += want - got
		if o.obs != nil {
			o.obs.balloonRefused.Add(want - got)
			o.obs.scope.Emit(obs.EvBalloonRefused, obs.DirNone, o.nodeTierByte(idx),
				0, want-got, want, 0)
		}
	}
	return got
}

// allocPage allocates one frame for kind, applying the placement
// policy. ok=false only when every tier (after on-demand population and
// reclaim) is exhausted.
func (o *OS) allocPage(kind PageKind) (PFN, bool) {
	pl := &o.cfg.Placement
	wantFast := pl.WantsFast(kind)
	if pl.Random {
		wantFast = o.rng.Bool(0.5)
	}

	var order []int // node indices in preference order
	if !o.cfg.Aware {
		order = []int{0}
	} else if wantFast {
		order = []int{0, 1}
	} else {
		order = []int{1, 0}
	}

	for attempt, idx := range order {
		pfn, ok := o.allocFromNode(idx, kind, attempt == 0)
		if !ok {
			continue
		}
		tier := o.nodes[idx].Tier
		if !o.cfg.Aware {
			tier = o.TierOfPage(pfn)
		}
		o.Window.Record(kind, wantFast && o.cfg.Aware, tier)
		o.WindowLife.Record(kind, wantFast && o.cfg.Aware, tier)
		o.initPage(pfn, kind)
		if o.obs != nil && wantFast && o.cfg.Aware {
			o.obs.fastAllocReqs.Inc()
			if tier != memsim.FastMem {
				o.obs.fastAllocMiss.Inc()
				o.obs.scope.Emit(obs.EvAllocMiss, obs.DirNone, uint8(tier),
					uint64(pfn), 1, 0, 0)
			}
		}
		return pfn, true
	}
	return NilPFN, false
}

// allocFromNode tries the node's free stack (refilled from the buddy
// allocator), then on-demand population, then (FastMem, HeteroOS-LRU,
// primary choice only) demand-based reclaim.
func (o *OS) allocFromNode(idx int, kind PageKind, primary bool) (PFN, bool) {
	n := o.nodes[idx]
	if pfn, ok := n.allocFrame(); ok {
		o.ep.OSTimeNs += o.costs.AllocFastPathNs
		return pfn, true
	}
	// Buddy exhausted (stack refill failed). Try extending the reservation.
	pl := &o.cfg.Placement
	if pl.OnDemand && n.Populated() < n.MaxPages {
		if o.populateNode(idx, populateBatchPages) > 0 {
			if pfn, ok := n.allocFrame(); ok {
				o.ep.OSTimeNs += o.costs.AllocSlowPathNs
				return pfn, true
			}
		}
	}
	if primary && pl.HeteroLRU && o.cfg.Aware && n.Tier == memsim.FastMem {
		if o.shouldReclaimFor(kind) {
			o.reclaimNode(idx, reclaimBatchPages)
			if pfn, ok := n.allocFrame(); ok {
				o.ep.OSTimeNs += o.costs.AllocSlowPathNs
				return pfn, true
			}
		}
	}
	return NilPFN, false
}

// shouldReclaimFor implements demand-based prioritisation: FastMem
// reclaim runs on behalf of kind only when kind's window miss ratio is
// (one of) the highest — the subsystem with the most unmet FastMem
// demand wins the contended capacity — and only while admissions are
// paying off (see reclaimWorthwhile).
func (o *OS) shouldReclaimFor(kind PageKind) bool {
	if !o.reclaimWorthwhile() {
		// Probe occasionally so a workload phase change can re-open the
		// throttle (the EWMAs only update while reclaim admits pages).
		if !o.rng.Bool(0.125) {
			return false
		}
	}
	maxKind, maxRatio := o.Window.MaxMissKind()
	if maxRatio == 0 {
		return true // no contention signal yet
	}
	return kind == maxKind || o.Window.MissRatio(kind) >= maxRatio*0.75
}

// reclaimWorthwhile reports whether demoting resident FastMem pages to
// admit new allocations has been paying off recently: admitted pages
// must be getting hot, and demoted pages must be staying cold.
func (o *OS) reclaimWorthwhile() bool {
	if o.admitSeen >= 32 && o.admitRate < 0.2 {
		return false
	}
	if o.demoteSeen >= 32 && o.demoteRegret > 0.5 {
		return false
	}
	return true
}

// admissionWindowEpochs is how long after admission a page has to prove
// itself hot.
const admissionWindowEpochs = 3

// sampleAdmission records a FastMem admission for later evaluation
// (every few admissions, to bound bookkeeping).
func (o *OS) sampleAdmission(pfn PFN) {
	if len(o.admitRing) > 4096 {
		return
	}
	o.admitRing = append(o.admitRing, admitSample{pfn: pfn, tag: o.store.Tag(pfn), epoch: o.epoch})
}

// evaluateAdmissions folds matured admission samples into the EWMAs.
func (o *OS) evaluateAdmissions() {
	o.admitRing, o.admitRate, o.admitSeen =
		o.foldSamples(o.admitRing, o.admitRate, o.admitSeen, 0.5, (*OS).provedHot)
	o.promoteRing, o.promoteRate, o.promoteSeen =
		o.foldSamples(o.promoteRing, o.promoteRate, o.promoteSeen, 0.5, (*OS).provedHot)
	o.demoteRing, o.demoteRegret, o.demoteSeen =
		o.foldSamples(o.demoteRing, o.demoteRegret, o.demoteSeen, 0.75, (*OS).regretted)
}

// provedHot reports whether an admitted page proved hot: it still
// holds the same contents, is still FastMem-resident, and reached the
// active list.
func (o *OS) provedHot(s admitSample) bool {
	st := o.store
	return st.Tag(s.pfn) == s.tag && st.Kind(s.pfn) != KindFree && st.Has(s.pfn, FlagActive) &&
		st.MFN(s.pfn) != memsim.NilMFN && o.cfg.TierOf(st.MFN(s.pfn)) == memsim.FastMem
}

// regretted reports whether a demotion is regretted: the page was
// touched again after it was demoted.
func (o *OS) regretted(s admitSample) bool {
	st := o.store
	return st.Tag(s.pfn) == s.tag && st.Kind(s.pfn) != KindFree && st.LastUse(s.pfn) > s.epoch
}

// foldSamples evaluates the samples in ring that have matured
// (admissionWindowEpochs old), counts those for which hit holds, and
// folds that hit ratio into the EWMA rate with weight keep on the old
// value. It returns the unmatured tail, moved to the front of ring's
// array, the new rate, and seen plus the number of samples evaluated.
func (o *OS) foldSamples(ring []admitSample, rate float64, seen int, keep float64, hit func(*OS, admitSample) bool) ([]admitSample, float64, int) {
	i := 0
	hits := 0
	for ; i < len(ring); i++ {
		s := ring[i]
		if s.epoch+admissionWindowEpochs > o.epoch {
			break
		}
		if hit(o, s) {
			hits++
		}
	}
	if i == 0 {
		return ring, rate, seen
	}
	r := float64(hits) / float64(i)
	// Compact the tail to the front so later appends reuse the array.
	n := copy(ring, ring[i:])
	return ring[:n], keep*rate + (1-keep)*r, seen + i
}

// PromotionWorthwhile reports whether recent coordinated promotions have
// been paying off; the coordinated manager throttles its migration
// budget when they stop (leaving a small probe rate so it can detect
// phase changes).
func (o *OS) PromotionWorthwhile() bool {
	return o.promoteSeen < 32 || o.promoteRate >= 0.3
}

// PromoteRate exposes the promotion-value EWMA; the coordinated manager
// scales its migration budget with it (spend more while it pays).
func (o *OS) PromoteRate() float64 { return o.promoteRate }

// initPage prepares freshly allocated page metadata.
func (o *OS) initPage(pfn PFN, kind PageKind) {
	st := o.store
	if k := st.Kind(pfn); k != KindFree {
		panic(fmt.Sprintf("guestos: allocating in-use pfn %d (%v)", pfn, k))
	}
	st.SetKind(pfn, kind)
	st.SetAllFlags(pfn, 0)
	st.SetVPN(pfn, NilVPN)
	st.SetLastUse(pfn, o.epoch)
	st.SetTag(pfn, o.rng.Uint64())
	o.Cum.AllocsByKind[kind]++
	switch kind {
	case KindAnon, KindPageCache:
		o.lrus[o.nodeIndexOf(pfn)].Insert(pfn)
		if o.cfg.Placement.HeteroLRU && o.cfg.Aware &&
			o.TierOfPage(pfn) == memsim.FastMem && o.Cum.AllocsByKind[kind]%4 == 0 {
			o.sampleAdmission(pfn)
		}
	}
	if o.indexer != nil {
		o.indexer.PageFreeChanged(pfn, false)
	}
}

// freePage releases one frame back to its node. Mapped pages are
// unmapped first; cache pages must be released through the page cache
// (which calls back into here).
func (o *OS) freePage(pfn PFN) {
	st := o.store
	if st.Kind(pfn) == KindFree {
		panic(fmt.Sprintf("guestos: double free of pfn %d", pfn))
	}
	if st.VPN(pfn) != NilVPN {
		o.unmapResident(pfn)
	}
	idx := o.nodeIndexOf(pfn)
	if st.Has(pfn, FlagOnLRU) {
		o.lrus[idx].Remove(pfn)
	}
	o.Cum.FreesByKind[st.Kind(pfn)]++
	st.SetKind(pfn, KindFree)
	st.SetAllFlags(pfn, 0)
	st.SetVPN(pfn, NilVPN)
	o.ep.OSTimeNs += o.costs.FreeNs
	o.nodes[idx].freeFrame(pfn)
	if o.indexer != nil {
		o.indexer.PageFreeChanged(pfn, true)
	}
}

// unmapResident clears the virtual mapping of a resident page and fixes
// the owning VMA's resident count.
func (o *OS) unmapResident(pfn PFN) {
	vpn := o.store.VPN(pfn)
	if vpn == NilVPN {
		return
	}
	o.AS.unmapPage(vpn)
	if v, ok := o.AS.FindVMA(vpn); ok {
		v.Resident--
	}
	o.store.SetVPN(pfn, NilVPN)
}

// releaseAnonPage frees an anonymous page during munmap (the mapping is
// already cleared by the caller).
func (o *OS) releaseAnonPage(pfn PFN) {
	o.store.SetVPN(pfn, NilVPN)
	o.freePage(pfn)
}

// fileUnmapped detaches a file-mapped cache page from the address space
// without evicting it from the cache.
func (o *OS) fileUnmapped(pfn PFN) {
	o.store.SetVPN(pfn, NilVPN)
}

// GuestPanic is the guest kernel's unrecoverable resource-exhaustion
// signal, raised (as a panic) when the kernel cannot allocate memory
// it cannot operate without — today, page-table pages. Unlike the
// package's other panics, which assert simulator programming errors,
// a GuestPanic is reachable from a legitimate configuration (a guest
// too small for its workload); the host contains it at the VM-step
// boundary, so the VM dies with an error while the process and the
// other guests keep running — a kernel panic confined to its VM.
type GuestPanic struct{ Reason string }

func (p *GuestPanic) Error() string { return "guestos: kernel panic: " + p.Reason }

// allocPTPage allocates a page-table page. Page tables are exception-
// listed from migration; the paper found their placement has negligible
// (<0.5%) impact, so they follow the same preference as other kernel
// allocations but are pinned.
func (o *OS) allocPTPage() PFN {
	pfn, ok := o.allocPage(KindPageTable)
	if !ok {
		panic(&GuestPanic{Reason: "out of memory allocating page table"})
	}
	return pfn
}

func (o *OS) freePTPage(pfn PFN) {
	o.freePage(pfn)
}

// BalloonTarget implements the VMM-driven balloon (deflate path): the
// guest must shrink node idx's population to target pages. It releases
// free frames first, then reclaims LRU pages, then swaps. Returns how
// many pages were released.
func (o *OS) BalloonTarget(t memsim.Tier, target uint64) uint64 {
	idx := 0
	if o.cfg.Aware {
		idx = int(t)
	}
	n := o.nodes[idx]
	if n.Populated() <= target {
		return 0
	}
	want := n.Populated() - target
	var released uint64
	for released < want {
		got := o.releaseFreeFrames(idx, want-released)
		released += got
		if released >= want {
			break
		}
		// Make more free pages: reclaim from this node's LRU.
		freed := o.reclaimNode(idx, reclaimBatchPages)
		if freed == 0 {
			break // nothing reclaimable; partial balloon
		}
	}
	return released
}

// releaseFreeFrames hands up to want free frames of node idx back to the
// VMM.
func (o *OS) releaseFreeFrames(idx int, want uint64) uint64 {
	n := o.nodes[idx]
	pfns := n.reserveFree(want)
	if len(pfns) == 0 {
		return 0
	}
	mfns := make([]memsim.MFN, len(pfns))
	for i, pfn := range pfns {
		mfns[i] = o.store.MFN(pfn)
		o.store.SetMFN(pfn, memsim.NilMFN)
		o.unpopulated[idx] = append(o.unpopulated[idx], uint32(pfn))
		if o.indexer != nil {
			o.indexer.PageUnbacked(pfn)
		}
	}
	o.cfg.Source.Release(mfns)
	o.ep.OSTimeNs += float64(len(mfns)) * o.costs.BalloonPerPageNs
	if o.obs != nil {
		o.obs.balloonOut.Add(uint64(len(mfns)))
		o.obs.scope.Emit(obs.EvBalloon, obs.DirInflate, o.nodeTierByte(idx),
			0, uint64(len(mfns)), 0, float64(len(mfns))*o.costs.BalloonPerPageNs)
	}
	return uint64(len(mfns))
}

// Teardown unwinds the guest for VM departure: every machine frame the
// guest still holds — free, mapped, cache, slab, or kernel — is handed
// back to the VMM in a single Release, and the P2M (per-page backing
// frame) is cleared. The OS is dead afterwards: no subsystem is usable
// and no invariant is expected to hold, so the caller must drop the
// instance. Returns the number of frames released.
func (o *OS) Teardown() uint64 {
	mfns := make([]memsim.MFN, 0, o.store.Len())
	for pfn := PFN(0); pfn < PFN(o.store.Len()); pfn++ {
		mfn := o.store.MFN(pfn)
		if mfn == memsim.NilMFN {
			continue
		}
		mfns = append(mfns, mfn)
		o.store.SetMFN(pfn, memsim.NilMFN)
		if o.indexer != nil {
			o.indexer.PageUnbacked(pfn)
		}
	}
	if len(mfns) > 0 {
		o.cfg.Source.Release(mfns)
	}
	return uint64(len(mfns))
}

// ForEachBacked calls fn for every guest page that currently holds a
// backing machine frame, in ascending PFN order. Cross-host migration
// uses it to enumerate the frame footprint an image must carry.
func (o *OS) ForEachBacked(fn func(pfn PFN, mfn memsim.MFN)) {
	for pfn := PFN(0); pfn < PFN(o.store.Len()); pfn++ {
		if mfn := o.store.MFN(pfn); mfn != memsim.NilMFN {
			fn(pfn, mfn)
		}
	}
}

// P2MEmpty verifies no page still holds a backing frame; a departed VM
// must satisfy it (System.CheckInvariants asserts this after shutdown).
func (o *OS) P2MEmpty() error {
	for pfn := PFN(0); pfn < PFN(o.store.Len()); pfn++ {
		if o.store.MFN(pfn) != memsim.NilMFN {
			return fmt.Errorf("guestos: pfn %d still backed after teardown", pfn)
		}
	}
	return nil
}

// CheckInvariants validates cross-subsystem consistency; tests and
// experiment teardown call it.
func (o *OS) CheckInvariants() error {
	for i, n := range o.nodes {
		if err := n.Buddy.CheckInvariants(); err != nil {
			return err
		}
		if err := o.checkFreeStack(i); err != nil {
			return err
		}
		if err := o.lrus[i].CheckInvariants(); err != nil {
			return err
		}
		if err := o.lrus[i].checkMemo(o.epoch); err != nil {
			return fmt.Errorf("guestos: node %d: %w", i, err)
		}
		if n.Populated() > n.MaxPages {
			return fmt.Errorf("guestos: node %d over-populated", i)
		}
	}
	if err := o.AS.CheckInvariants(); err != nil {
		return err
	}
	if err := o.PC.CheckInvariants(); err != nil {
		return err
	}
	for _, c := range o.Slabs {
		if err := c.CheckInvariants(); err != nil {
			return err
		}
	}
	if err := o.store.CheckInvariants(); err != nil {
		return err
	}
	// Every populated, non-free page has a backing frame; every free
	// page is either unpopulated or in an allocator.
	var used, lru uint64
	for pfn := PFN(0); pfn < PFN(o.store.Len()); pfn++ {
		kind := o.store.Kind(pfn)
		if kind != KindFree && o.store.MFN(pfn) == memsim.NilMFN {
			return fmt.Errorf("guestos: in-use pfn %d has no backing frame", pfn)
		}
		if kind != KindFree {
			used++
		}
		if o.store.Has(pfn, FlagOnLRU) {
			lru++
		}
	}
	var usedNodes, lruNodes uint64
	for i, n := range o.nodes {
		usedNodes += n.UsedPages()
		lruNodes += o.lrus[i].Count()
	}
	if used != usedNodes {
		return fmt.Errorf("guestos: %d in-use pages vs %d per-node used", used, usedNodes)
	}
	if lru != lruNodes {
		return fmt.Errorf("guestos: %d LRU-flagged pages vs %d on lists", lru, lruNodes)
	}
	return nil
}

// checkFreeStack verifies node idx's free-frame stack: every frame lies
// in the node's span, is free in the page store, appears once and is
// not also inside one of the buddy allocator's free blocks. Frame counts
// alone cannot see a stacked frame swapped for one the buddy allocator
// still holds, which would hand the same frame out twice.
func (o *OS) checkFreeStack(idx int) error {
	n := o.nodes[idx]
	frames := slices.Clone(n.free)
	slices.Sort(frames)
	for i, f := range frames {
		pfn := PFN(f)
		switch {
		case !n.Contains(pfn):
			return fmt.Errorf("guestos: node %d free stack frame %d outside span [%d,+%d)", idx, pfn, n.Base, n.MaxPages)
		case o.store.Kind(pfn) != KindFree:
			return fmt.Errorf("guestos: node %d free stack frame %d is in use (%v)", idx, pfn, o.store.Kind(pfn))
		case i > 0 && frames[i-1] == f:
			return fmt.Errorf("guestos: node %d free stack holds frame %d twice", idx, pfn)
		case n.Buddy.IsFree(uint64(pfn)):
			return fmt.Errorf("guestos: node %d free stack frame %d is also in a buddy free block", idx, pfn)
		}
	}
	return nil
}

// SlabChurnPageEquivalents converts cumulative slab-object churn into
// page equivalents per kind. Slab caches recycle pages internally, so
// raw page-allocation counts hide the enormous buffer churn that
// Figure 4's census reports for network- and storage-intensive
// applications; object-volume over page size recovers it.
func (o *OS) SlabChurnPageEquivalents() (netbuf, slab float64) {
	for id, c := range o.Slabs {
		allocs, _, _, _ := c.Stats()
		pages := float64(allocs) * float64(c.ObjSize()) / float64(memsim.PageSize)
		if SlabID(id) == SlabSkbuff {
			netbuf += pages
		} else {
			slab += pages
		}
	}
	return netbuf, slab
}

// PageCensus counts current pages by kind (Figure 4's distribution).
func (o *OS) PageCensus() [NumKinds]uint64 {
	var out [NumKinds]uint64
	for pfn := PFN(0); pfn < PFN(o.store.Len()); pfn++ {
		out[o.store.Kind(pfn)]++
	}
	return out
}
