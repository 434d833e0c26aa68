package guestos

import (
	"fmt"

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
	o.AS.faults++
	o.ep.Faults++
	o.ep.OSTimeNs += o.costs.PageFaultNs

	switch v.Kind {
	case KindAnon:
		pfn, ok := o.allocPage(KindAnon, 0)
		if !ok {
			// Last resort: make room anywhere, then retry once.
			o.emergencyReclaim()
			pfn, ok = o.allocPage(KindAnon, 0)
			if !ok {
				return NilPFN, fmt.Errorf("guestos: out of memory faulting vpn %d", vpn)
			}
		}
		o.store.SetVPN(pfn, vpn)
		if fromSwap {
			o.store.SetTag(pfn, o.swap.take(vpn))
			o.AS.clearSwapEntry(vpn)
			o.AS.swapIns++
			o.ep.SwapIns++
			o.ep.OSTimeNs += o.costs.SwapPageNs
		}
		o.AS.mapPage(vpn, pfn)
		v.Resident++
		return pfn, nil

	case KindPageCache:
		off := uint64(vpn - v.Start)
		res := o.PC.Read(v.File, off, 1)
		o.chargeIO(pagecacheResult{res.Touched, res.DiskPages, res.AllocFailed}, false)
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
// kernel copies through the touched cache pages.
func (o *OS) chargeIO(res pagecacheResult, write bool) {
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
}

// pagecacheResult mirrors pagecache.ReadResult without re-importing it
// (kept structurally identical; conversion happens in the callers).
type pagecacheResult struct {
	Touched     []uint64
	DiskPages   int
	AllocFailed int
}

// FileRead reads n pages of file starting at page offset off through
// the page cache, charging disk reads for misses and per-page copies at
// the tier of each cache page.
func (o *OS) FileRead(file FileID, off uint64, n int) {
	o.ep.OSTimeNs += o.costs.SyscallNs
	res := o.PC.Read(file, off, n)
	o.chargeIO(pagecacheResult{res.Touched, res.DiskPages, res.AllocFailed}, false)
}

// FileWrite writes n pages of file starting at off through the page
// cache (writeback caching).
func (o *OS) FileWrite(file FileID, off uint64, n int) {
	o.ep.OSTimeNs += o.costs.SyscallNs
	res := o.PC.Write(file, off, n)
	o.chargeIO(pagecacheResult{res.Touched, res.DiskPages, res.AllocFailed}, true)
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
// inodes, block metadata) and returns handles for later release.
func (o *OS) SlabMetaAlloc(cache string, n int) []slabObjRef {
	c, ok := o.Slabs[cache]
	if !ok {
		panic(fmt.Sprintf("guestos: unknown slab cache %q", cache))
	}
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
	cache string
	ref   slab.ObjRef
}

// EndEpoch runs the guest's periodic memory-management work: writeback,
// LRU balancing, HeteroOS-LRU eager eviction and watermark reclaim, and
// the demand-window decay. Call once per simulation epoch, before
// DrainEpoch.
func (o *OS) EndEpoch() {
	// Background writeback.
	flushed := o.PC.Writeback(writebackPerEpoch)
	if len(flushed) > 0 {
		o.ep.DiskWritePages += uint64(len(flushed))
		o.ep.OSTimeNs += float64(len(flushed)) * o.costs.DiskWritePageNs * o.costs.WritebackAsyncFactor
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
				o.demoteAnonPage(pfn)
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

// PeekEpoch returns the in-flight epoch stats without clearing.
func (o *OS) PeekEpoch() EpochStats { return o.ep }

// AddOSTime lets the surrounding system charge guest-attributed software
// time (e.g. VMM scan stalls) into the current epoch.
func (o *OS) AddOSTime(ns float64) { o.ep.OSTimeNs += ns }

// --- VMM-facing view (hotness tracking and transparent migration) ---

// ScanHeat reads the VMM scanner's hotness history for pfn.
func (o *OS) ScanHeat(pfn PFN) uint8 { return o.store.ScanHeat(pfn) }

// SetScanHeat stores the VMM scanner's hotness history for pfn.
func (o *OS) SetScanHeat(pfn PFN, h uint8) {
	if o.store.ScanHeat(pfn) == h {
		return
	}
	o.store.SetScanHeat(pfn, h)
	if o.indexer != nil {
		o.indexer.PageHeatChanged(pfn)
	}
}

// ScanWriteHeat reads the tracker's store-activity history for pfn.
func (o *OS) ScanWriteHeat(pfn PFN) uint8 { return o.store.ScanWriteHeat(pfn) }

// SetScanWriteHeat stores the tracker's store-activity history for pfn.
func (o *OS) SetScanWriteHeat(pfn PFN, h uint8) {
	if o.store.ScanWriteHeat(pfn) == h {
		return
	}
	o.store.SetScanWriteHeat(pfn, h)
	if o.indexer != nil {
		o.indexer.PageHeatChanged(pfn)
	}
}

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
	// The export is an observation, not guest work: like
	// AddrSpace.CheckInvariants, it must not perturb the walkSteps
	// diagnostic — especially now that caching makes the number of
	// rebuild walks depend on call patterns (e.g. a restore rebuilds
	// once where an uninterrupted run kept its cache).
	defer func(saved uint64) { o.AS.walkSteps = saved }(o.AS.walkSteps)
	out := o.trackBuf[:0]
	for _, v := range o.AS.VMAs() {
		if v.Kind != KindAnon {
			continue
		}
		for vpn := v.Start; vpn < v.End(); {
			var leaves []PFN
			leaves, vpn = o.AS.leafRun(vpn, v.End())
			for _, e := range leaves {
				if leafPresent(e) {
					out = append(out, e)
				}
			}
		}
	}
	o.trackBuf = out
	o.trackGen = o.AS.mapGen
	o.trackValid = true
	return out
}

// ExceptionList reports the page kinds the guest exports as not worth
// tracking (Figure 5's exception list): short-lived I/O cache and
// buffer pages (HeteroOS-LRU evicts them right after the I/O), and the
// linearly-mapped page-table and DMA pages Linux cannot migrate.
// TrackingList is its complement — it only walks anonymous VMAs.
func (o *OS) ExceptionList() []PageKind {
	return []PageKind{KindPageCache, KindNetBuf, KindSlab, KindPageTable, KindDMA}
}

// ResidentByTier counts resident (non-free) pages per backing tier.
func (o *OS) ResidentByTier() [memsim.NumTiers]uint64 {
	var out [memsim.NumTiers]uint64
	for pfn := PFN(0); pfn < PFN(o.store.Len()); pfn++ {
		mfn := o.store.MFN(pfn)
		if o.store.Kind(pfn) == KindFree || mfn == memsim.NilMFN {
			continue
		}
		out[o.cfg.TierOf(mfn)]++
	}
	return out
}

// SwappedPages reports the number of pages currently in swap.
func (o *OS) SwappedPages() int { return o.swap.count() }
