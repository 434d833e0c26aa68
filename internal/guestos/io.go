package guestos

import (
	"fmt"
	"math/bits"
	"slices"

	"heteroos/internal/guestos/pagecache"
	"heteroos/internal/guestos/slab"
	"heteroos/internal/memsim"
)

// TouchVPN records application accesses to one virtual page: demand
// faults (and swap-ins) are serviced, the page's reference state is
// updated, and the access counts are attributed to the backing tier.
// Returns the backing frame.
func (o *OS) TouchVPN(vpn VPN, loads, stores uint64) (PFN, error) {
	pfn, st := o.AS.lookup(vpn)
	switch st {
	case ptPresent:
		// Fast path.
	case ptAbsent:
		var err error
		pfn, err = o.faultIn(vpn, false)
		if err != nil {
			return NilPFN, err
		}
	case ptSwapped:
		var err error
		pfn, err = o.faultIn(vpn, true)
		if err != nil {
			return NilPFN, err
		}
	}
	o.recordUserTouch(pfn, loads, stores)
	return pfn, nil
}

// faultIn services a demand fault on vpn.
func (o *OS) faultIn(vpn VPN, fromSwap bool) (PFN, error) {
	v, ok := o.AS.FindVMA(vpn)
	if !ok {
		return NilPFN, fmt.Errorf("guestos: fault on unmapped vpn %d", vpn)
	}
	o.ep.Faults++
	o.ep.OSTimeNs += o.costs.PageFaultNs

	switch v.Kind {
	case KindAnon:
		pfn, ok := o.allocPage(KindAnon)
		if !ok {
			// Last resort: make room anywhere, then retry once.
			o.emergencyReclaim()
			pfn, ok = o.allocPage(KindAnon)
			if !ok {
				return NilPFN, fmt.Errorf("guestos: out of memory faulting vpn %d", vpn)
			}
		}
		o.store.SetVPN(pfn, vpn)
		if fromSwap {
			o.store.SetTag(pfn, o.swap.take(vpn))
			o.AS.clearSwapEntry(vpn)
			o.ep.SwapIns++
			o.ep.OSTimeNs += o.costs.SwapPageNs
		}
		o.AS.mapPage(vpn, pfn)
		v.Resident++
		return pfn, nil

	case KindPageCache:
		off := uint64(vpn - v.Start)
		o.chargeIO(o.PC.Read(o.ioBuf[:0], v.File, off, 1), false)
		pfn, ok := o.PC.Lookup(v.File, off)
		if !ok {
			return NilPFN, fmt.Errorf("guestos: out of memory mapping file page %d@%d", v.File, off)
		}
		o.store.SetVPN(PFN(pfn), vpn)
		o.AS.mapPage(vpn, PFN(pfn))
		v.Resident++
		return PFN(pfn), nil
	}
	return NilPFN, fmt.Errorf("guestos: fault in VMA of kind %v", v.Kind)
}

// emergencyReclaim frees memory from every node under global pressure.
func (o *OS) emergencyReclaim() {
	for idx := range o.nodes {
		o.reclaimNode(idx, reclaimBatchPages)
	}
}

// recordUserTouch attributes application accesses to the page's tier and
// updates reference state.
func (o *OS) recordUserTouch(pfn PFN, loads, stores uint64) {
	st := o.store
	tier := o.TierOfPage(pfn)
	o.ep.UserLoads[tier] += loads
	o.ep.UserStores[tier] += stores
	st.SetLastUse(pfn, o.epoch)
	st.Set(pfn, FlagScanAccessed)
	if stores > 0 {
		st.Set(pfn, FlagScanWritten)
	}
	// mark_page_accessed semantics: every touch sets the referenced bit,
	// and an inactive LRU page activates on its second reference. A
	// heavily touched page activates at once, as MarkAccessed called
	// twice would: one TouchVPN call stands for many real references.
	onLRU, active, accessed := st.lruBits(pfn)
	st.Set(pfn, FlagAccessed)
	if onLRU && !active && (accessed || loads+stores >= 3) {
		o.lrus[o.nodeIndexOf(pfn)].activate(pfn)
	}
}

// recordKernelTouch attributes a kernel data movement of bytes through
// page pfn (I/O copy, buffer copy) and refreshes reference state. The
// copy counts as line-granularity loads on the page's tier, so the
// epoch's LLC-miss volume is attributed to cache/slab pages in
// proportion to the I/O flowing through them — this is what makes
// page-cache and skbuff placement matter to I/O-intensive applications
// exactly as Section 3.2 describes.
func (o *OS) recordKernelTouch(pfn PFN, bytes float64) {
	st := o.store
	tier := o.TierOfPage(pfn)
	o.ep.KernelCopyBytes[tier] += bytes
	o.ep.UserLoads[tier] += uint64(bytes / memsim.CacheLineSize)
	st.SetLastUse(pfn, o.epoch)
	st.Set(pfn, FlagScanAccessed)
	if st.Has(pfn, FlagOnLRU) {
		o.lrus[o.nodeIndexOf(pfn)].MarkAccessed(pfn)
	} else {
		st.Set(pfn, FlagAccessed)
	}
}

// chargeIO prices a page-cache operation result: disk pages and the
// kernel copies through the touched cache pages. res.Touched is the
// OS's I/O scratch buffer, which chargeIO hands back, emptied, for the
// next operation; nothing else keeps it.
func (o *OS) chargeIO(res pagecache.ReadResult, write bool) {
	if res.DiskPages > 0 {
		if write {
			o.ep.DiskWritePages += uint64(res.DiskPages)
			o.ep.OSTimeNs += float64(res.DiskPages) * o.costs.DiskWritePageNs * o.costs.WritebackAsyncFactor
		} else {
			o.ep.DiskReadPages += uint64(res.DiskPages)
			o.ep.OSTimeNs += float64(res.DiskPages) * o.costs.DiskReadPageNs
		}
	}
	for _, raw := range res.Touched {
		o.recordKernelTouch(PFN(raw), memsim.PageSize)
	}
	o.ioBuf = res.Touched[:0]
}

// FileRead reads n pages of file starting at page offset off through
// the page cache, charging disk reads for misses and per-page copies at
// the tier of each cache page.
func (o *OS) FileRead(file FileID, off uint64, n int) {
	o.ep.OSTimeNs += o.costs.SyscallNs
	o.chargeIO(o.PC.Read(o.ioBuf[:0], file, off, n), false)
}

// FileWrite writes n pages of file starting at off through the page
// cache (writeback caching).
func (o *OS) FileWrite(file FileID, off uint64, n int) {
	o.ep.OSTimeNs += o.costs.SyscallNs
	o.chargeIO(o.PC.Write(o.ioBuf[:0], file, off, n), true)
}

// ReleaseFileRange drops n cached pages of file starting at page offset
// off: the drop-behind path streaming readers trigger once a range is
// consumed (madvise(DONTNEED) / readahead thrash control). Mapped pages
// are unmapped first; dirty pages are written back. This is what makes
// streaming I/O pages "short-lived [with] high reuse ... released once
// an I/O is complete" (Observation 3).
func (o *OS) ReleaseFileRange(file FileID, off uint64, n int) int {
	released := 0
	for i := 0; i < n; i++ {
		raw, ok := o.PC.Lookup(file, off+uint64(i))
		if !ok {
			continue
		}
		pfn := PFN(raw)
		if o.store.VPN(pfn) != NilVPN {
			o.unmapResident(pfn)
		}
		if o.PC.Evict(raw) {
			o.ep.DiskWritePages++
			o.ep.OSTimeNs += o.costs.DiskWritePageNs * o.costs.WritebackAsyncFactor
		}
		released++
	}
	return released
}

// NetRecv models receiving ops network messages of msgBytes each:
// skbuffs are allocated from the network slab, the payload is copied
// through them (charged at the slab pages' tiers), and the buffers are
// freed when the protocol stack hands data to the application —
// precisely the short-lived, high-reuse OS pages of Observation 3.
func (o *OS) NetRecv(ops int, msgBytes int) {
	o.netTransfer(ops, msgBytes)
}

// NetSend models sending; the skbuff lifecycle is symmetric.
func (o *OS) NetSend(ops int, msgBytes int) {
	o.netTransfer(ops, msgBytes)
}

func (o *OS) netTransfer(ops int, msgBytes int) {
	sk := o.Slabs[SlabSkbuff]
	objSize := sk.ObjSize()
	for i := 0; i < ops; i++ {
		o.ep.OSTimeNs += o.costs.NetOpNs
		bufs := (msgBytes + objSize - 1) / objSize
		refs := o.netRefs[:0]
		for b := 0; b < bufs; b++ {
			ref, err := sk.Alloc()
			if err != nil {
				break // out of memory: drop remaining buffers
			}
			refs = append(refs, ref)
			o.recordKernelTouch(PFN(ref.SlabBase), float64(objSize))
		}
		for _, ref := range refs {
			sk.Free(ref)
		}
		o.netRefs = refs[:0]
	}
}

// SlabMetaAlloc allocates n filesystem-metadata objects (dentries,
// inodes, block metadata) from cache and returns handles for later
// release.
func (o *OS) SlabMetaAlloc(cache SlabID, n int) []slabObjRef {
	c := o.Slabs[cache]
	out := make([]slabObjRef, 0, n)
	for i := 0; i < n; i++ {
		ref, err := c.Alloc()
		if err != nil {
			break
		}
		o.recordKernelTouch(PFN(ref.SlabBase), float64(c.ObjSize()))
		out = append(out, slabObjRef{cache: cache, ref: ref})
	}
	return out
}

// SlabMetaFree releases objects from SlabMetaAlloc.
func (o *OS) SlabMetaFree(refs []slabObjRef) {
	for _, r := range refs {
		o.Slabs[r.cache].Free(r.ref)
	}
}

// slabObjRef pairs a slab object with its cache for release.
type slabObjRef struct {
	cache SlabID
	ref   slab.ObjRef
}

// EndEpoch runs the guest's periodic memory-management work: writeback,
// LRU balancing, HeteroOS-LRU eager eviction and watermark reclaim, and
// the demand-window decay. Call once per simulation epoch, before
// DrainEpoch.
func (o *OS) EndEpoch() {
	// Background writeback.
	flushed := o.PC.Writeback(o.ioBuf[:0], writebackPerEpoch)
	o.ioBuf = flushed[:0]
	if n := len(flushed); n > 0 {
		o.ep.DiskWritePages += uint64(n)
		o.ep.OSTimeNs += float64(n) * o.costs.DiskWritePageNs * o.costs.WritebackAsyncFactor
	}

	// HeteroOS-LRU: under FastMem pressure, pages leaving the FastMem
	// active list are immediately demoted to SlowMem rather than
	// lingering. Balancing runs only under pressure — stripping the
	// active list without need would evict the very working set the LRU
	// exists to protect.
	if o.cfg.Placement.HeteroLRU && o.cfg.Aware {
		fast := o.Node(memsim.FastMem)
		if fast.BelowLow() {
			demoted := o.lrus[memsim.FastMem].BalanceInto(o.balanceBuf[:0], reclaimBatchPages)
			o.balanceBuf = demoted
			for _, pfn := range demoted {
				// The same guards as reclaim: never eagerly demote a
				// page that is recently used or tracker-hot.
				if o.store.Kind(pfn) != KindAnon || o.store.ScanHeat(pfn) >= 4 {
					continue
				}
				if o.store.LastUse(pfn)+2 >= o.epoch && o.epoch >= 2 {
					continue
				}
				o.demoteToSlow(pfn)
			}
		}
		o.eagerEvictIOPages()
		o.evaluateAdmissions()
		if o.reclaimWorthwhile() {
			o.maintainWatermarks()
		}
	}

	o.epoch++
	if o.epoch%statsWindowEpochs == 0 {
		o.Window.Reset()
	}
}

// DrainEpoch returns and clears the epoch's accumulated statistics.
func (o *OS) DrainEpoch() EpochStats {
	out := o.ep
	o.ep = EpochStats{}
	return out
}

// AddOSTime lets the surrounding system charge guest-attributed software
// time (e.g. VMM scan stalls) into the current epoch.
func (o *OS) AddOSTime(ns float64) { o.ep.OSTimeNs += ns }

// --- VMM-facing view (hotness tracking and transparent migration) ---

// ScanHeat reads the VMM scanner's hotness history for pfn.
func (o *OS) ScanHeat(pfn PFN) uint8 { return o.store.ScanHeat(pfn) }

// SetScanHeat stores the VMM scanner's hotness history for pfn.
func (o *OS) SetScanHeat(pfn PFN, h uint8) {
	old := o.store.ScanHeat(pfn)
	if old == h {
		return
	}
	o.store.SetScanHeat(pfn, h)
	if old >= 6 && h < 6 {
		// The page may have lost reclaim protection.
		if onLRU, active, _ := o.store.lruBits(pfn); onLRU && !active {
			o.lrus[o.nodeIndexOf(pfn)].recheckMemo(pfn)
		}
	}
	if o.indexer != nil {
		o.indexer.PagesHeatChanged(int(pfn>>6), 1<<(pfn&63))
	}
}

// FoldScanHeatWord applies one VMM scan pass to the pages of 64-page
// word w selected by work: each one's heat halves and gains 4 if its
// bit is set in ref and, when writes is set, its write heat does the
// same with written. It does what SetScanHeat does page by page, once
// per word: a page whose heat drops from at least 6 to below 6 while
// inactive on an LRU rechecks that LRU's lap memo, and an attached
// indexer hears of every changed page in one call.
func (o *OS) FoldScanHeatWord(w int, work, ref, written uint64, writes bool) {
	st := o.store
	changed, dropped := foldHeatWord(st.scanHeat, st.scanHeatNZ, w, work, ref)
	if writes {
		wchanged, _ := foldHeatWord(st.scanWriteHeat, st.scanWriteHeatNZ, w, work, written)
		changed |= wchanged
	}
	// The pages may have lost reclaim protection.
	for m := dropped & st.onLRU[w] &^ st.active[w]; m != 0; m &= m - 1 {
		pfn := PFN(w<<6 + bits.TrailingZeros64(m))
		o.lrus[o.nodeIndexOf(pfn)].recheckMemo(pfn)
	}
	if changed != 0 && o.indexer != nil {
		o.indexer.PagesHeatChanged(w, changed)
	}
}

// ScanWriteHeat reads the tracker's store-activity history for pfn.
func (o *OS) ScanWriteHeat(pfn PFN) uint8 { return o.store.ScanWriteHeat(pfn) }

// TakeScanAccessedWord emulates the access-bit scan for the 64 pages of
// word w selected by mask: it returns which were referenced since the
// last scan and clears the tracker's private bits (leaving the LRU's
// referenced bits alone). The VMM's scanner pays the PTE-walk and
// TLB-flush costs at its layer.
func (o *OS) TakeScanAccessedWord(w int, mask uint64) uint64 {
	return o.store.TakeScanAccessedWord(w, mask)
}

// TakeScanWrittenWord emulates PAGE_RW write-bit scanning (Section 4.3)
// the same way: it returns which selected pages were stored to since the
// last scan and clears the tracker's private dirtied bits.
func (o *OS) TakeScanWrittenWord(w int, mask uint64) uint64 {
	return o.store.TakeScanWrittenWord(w, mask)
}

// ScanHeatNonzeroWord reports which pages of word w still hold nonzero
// scan heat; the scanner must visit those even when unreferenced.
func (o *OS) ScanHeatNonzeroWord(w int, mask uint64) uint64 {
	return o.store.ScanHeatNonzeroWord(w, mask)
}

// ScanWriteHeatNonzeroWord is ScanHeatNonzeroWord for write heat.
func (o *OS) ScanWriteHeatNonzeroWord(w int, mask uint64) uint64 {
	return o.store.ScanWriteHeatNonzeroWord(w, mask)
}

// PageSnapshot is the per-page state the VMM can observe: whether the
// guest holds the page free, and its backing frame.
type PageSnapshot struct {
	Free bool
	MFN  memsim.MFN
}

// Snapshot returns the VMM-visible state of pfn.
func (o *OS) Snapshot(pfn PFN) PageSnapshot {
	st := o.store
	return PageSnapshot{Free: st.Kind(pfn) == KindFree, MFN: st.MFN(pfn)}
}

// SetBackingMFN swaps the machine frame behind pfn: the transparent
// (VMM-exclusive) migration path. Only valid for populated pages in
// non-aware guests, where guest-physical layout carries no tier meaning.
func (o *OS) SetBackingMFN(pfn PFN, mfn memsim.MFN) {
	if o.cfg.Aware {
		panic("guestos: SetBackingMFN on heterogeneity-aware guest")
	}
	if o.store.MFN(pfn) == memsim.NilMFN {
		panic(fmt.Sprintf("guestos: SetBackingMFN on unpopulated pfn %d", pfn))
	}
	o.store.SetMFN(pfn, mfn)
	if o.indexer != nil {
		o.indexer.PageBacked(pfn, mfn)
	}
}

// TrackingList implements the coordinated interface's tracking list: the
// guest exports the regions worth scanning — resident anonymous pages —
// extracted from the VMA structures. Short-lived I/O pages, page-table
// and DMA pages form the implicit exception list by omission.
//
// The returned slice is backed by an OS-owned buffer and is only valid
// until the next TrackingList call (the coordinated pass consumes it
// immediately; nothing retains it across passes).
//
// The full VMA walk is expensive (one page-table walk per 512-VPN leaf
// table), so the list is cached against the address space's mapping
// generation: as long as no map/unmap/populate changed a translation,
// repeat calls return the previous walk's result unchanged.
func (o *OS) TrackingList() []PFN {
	if o.trackValid && o.trackGen == o.AS.mapGen {
		return o.trackBuf
	}
	// The anonymous VMAs' resident counts are the list's length, so the
	// buffer grows at most once per pass.
	var resident uint64
	for _, v := range o.AS.order {
		if v.Kind == KindAnon {
			resident += v.Resident
		}
	}
	out := slices.Grow(o.trackBuf[:0], int(resident))
	for _, v := range o.AS.order {
		if v.Kind != KindAnon {
			continue
		}
		for vpn := v.Start; vpn < v.End(); {
			var leaves []uint32
			leaves, vpn = o.AS.leafRun(vpn, v.End())
			for _, e := range leaves {
				if leafPresent(e) {
					out = append(out, PFN(e))
				}
			}
		}
	}
	o.trackBuf = out
	o.trackGen = o.AS.mapGen
	o.trackValid = true
	return out
}
