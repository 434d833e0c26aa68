package guestos

import (
	"fmt"

	"heteroos/internal/memsim"
	"heteroos/internal/obs"
)

// reclaimNode frees up to target pages from node idx by walking the
// inactive LRU tail:
//
//   - referenced pages get a second chance (rotate),
//   - clean cache pages are dropped, dirty ones written back first,
//   - anonymous pages are demoted to SlowMem when reclaiming FastMem
//     (HeteroOS-LRU's eviction "to a slower memory"), or swapped out when
//     no SlowMem is available (or when reclaiming SlowMem itself).
//
// Returns the number of frames actually freed in this node.
// demotionRateCap bounds demotions per epoch: page movement is priced
// work (Table 6), and unbounded reclaim bursts can cost more than the
// placement they buy.
const demotionRateCap = 128

func (o *OS) reclaimNode(idx int, target uint64) uint64 {
	// Cheap evictions first: dropping clean, idle I/O cache pages costs
	// nothing compared to migrating anonymous pages (Figure 12 shows the
	// paper's HeteroOS-LRU moves an order of magnitude fewer pages than
	// the VMM-exclusive baseline — the bulk of its FastMem availability
	// comes from released I/O pages).
	freed := o.reclaimPass(idx, target, true)
	if freed < target {
		freed += o.reclaimPass(idx, target-freed, false)
	}
	return freed
}

// reclaimPass walks the inactive LRU once. When cacheOnly is set, only
// page-cache pages are eligible (anonymous pages are rotated past).
func (o *OS) reclaimPass(idx int, target uint64, cacheOnly bool) uint64 {
	n := o.nodes[idx]
	l := o.lrus[idx]
	st := o.store
	var freed, rotations uint64
	// Refill the inactive list if it ran dry.
	if l.InactiveCount() == 0 {
		o.balanceBuf = l.BalanceInto(o.balanceBuf[:0], int(2*target))
	}
	// The allocation window only changes in allocPage, which nothing in
	// this walk reaches (page moves take their frame from the node free
	// stack or populateNode directly), so the guard holds for the whole
	// pass.
	guard := o.reclaimGuard()
	epoch := o.epoch
	// protected pages get the same second chance as referenced ones:
	// recently used pages (the recency guard); pages the tracker knows
	// are decisively hot, including freshly promoted ones, since reclaim
	// undoing the migrator's work would waste both moves (ScanHeat is
	// zero outside coordinated mode; the gray zone below stays
	// reclaimable so allocation placement never starves); and, in a
	// cache-only pass, anonymous pages.
	protected := func(pfn PFN) bool {
		return reclaimProtected(st, pfn, epoch, guard, cacheOnly)
	}
	attempts := l.InactiveCount() + l.ActiveCount()
	if target > 0 && l.InactiveCount() > 0 && l.memoHolds(epoch, guard, cacheOnly) {
		// The walk would take the memoized all-protected lap and fold
		// it: apply its effect without evaluating a page.
		l.replayLap(attempts, n.Base, n.Base+PFN(n.MaxPages))
		rotations, attempts = attempts, 0
	}
walk:
	for freed < target && attempts > 0 {
		r, lap := l.rotateRun(attempts, protected)
		attempts -= r
		rotations += r
		if attempts == 0 {
			if lap {
				l.setMemo(epoch, guard, cacheOnly)
			}
			break
		}
		attempts--
		pfn := l.TailInactive()
		if pfn == NilPFN {
			if cacheOnly {
				break
			}
			o.balanceBuf = l.BalanceInto(o.balanceBuf[:0], int(2*target))
			if len(o.balanceBuf) == 0 {
				break
			}
			continue
		}
		// rotateRun stopped at an unreferenced, unprotected tail page.
		switch kind := st.Kind(pfn); kind {
		case KindPageCache:
			o.evictCachePage(pfn)
			freed++
		case KindAnon:
			if n.Tier == memsim.FastMem && o.cfg.Aware {
				if o.ep.Demotions >= demotionRateCap {
					break walk // budget exhausted this epoch; allocations spill
				}
				if o.demoteToSlow(pfn) {
					freed++
					continue
				}
			}
			if o.swapOutPage(pfn) {
				freed++
			}
		default:
			// Slab/netbuf/pagetable pages are not on the LRU; seeing one
			// here is a bug.
			panic(fmt.Sprintf("guestos: kind %v page %d on LRU", kind, pfn))
		}
	}
	if o.obs != nil {
		o.obs.reclaimPasses.Inc()
		o.obs.reclaimFreed.Add(freed)
		o.obs.lruRotations.Add(rotations)
		o.obs.reclaimFreedH.Observe(float64(freed))
		dir := obs.DirFull
		if cacheOnly {
			dir = obs.DirCacheOnly
		}
		o.obs.scope.Emit(obs.EvReclaim, dir, o.nodeTierByte(idx), 0, freed, rotations, 0)
	}
	return freed
}

// reclaimGuard is reclaim's recency guard in epochs: a page used within
// the last two epochs is part of the active working set even if a
// rotation cleared its referenced bit; evicting it would thrash.
// Spilling the new allocation to SlowMem (a FastMem allocation miss) is
// cheaper than demoting a hot page. When FastMem is far smaller than
// the working set everything is recent and the guard would starve
// reclaim entirely, so it relaxes under heavy allocation misses.
func (o *OS) reclaimGuard() uint32 {
	if o.Window.OverallMissRatio() > 0.5 {
		return 0
	}
	return 2
}

// evictCachePage drops a page-cache page, writing it back first when
// dirty.
func (o *OS) evictCachePage(pfn PFN) {
	if !o.PC.Owns(uint64(pfn)) {
		panic(fmt.Sprintf("guestos: cache page %d unknown to page cache", pfn))
	}
	if o.PC.Evict(uint64(pfn)) {
		// Dirty page: synchronous writeback before reuse.
		o.ep.DiskWritePages++
		o.ep.OSTimeNs += o.costs.DiskWritePageNs
	}
	o.ep.CacheEvictions++
	if o.obs != nil {
		o.obs.cacheEvictions.Inc()
		o.obs.scope.Emit(obs.EvCacheEvict, obs.DirNone,
			o.nodeTierByte(o.nodeIndexOf(pfn)), uint64(pfn), 1, 0, 0)
	}
}

// demoteToSlow migrates a movable page from FastMem to SlowMem
// (allocating a SlowMem frame, copying, remapping). Returns false when
// SlowMem has no free frame.
func (o *OS) demoteToSlow(pfn PFN) bool {
	return o.movePageAcrossNodes(pfn, memsim.SlowMem, false)
}

// migratable applies the OS-side validity checks the paper assigns to
// guest-controlled migration (Section 4.1) before a move to tier to:
// the page must be movable, still in use, mapped (for anon), not a
// dirty or short-lived I/O page, and not already on to. A refused page
// counts as a skipped migration.
func (o *OS) migratable(pfn PFN, to memsim.Tier) bool {
	st := o.store
	kind := st.Kind(pfn)
	switch {
	case kind == KindFree,
		!kind.Movable(),
		kind == KindAnon && st.VPN(pfn) == NilVPN,
		kind == KindPageCache && o.PC.Dirty(uint64(pfn)),
		kind == KindNetBuf || kind == KindSlab, // slabs are not remappable per page
		o.TierOfPage(pfn) == to:
		o.ep.MigrationsSkipped++
		return false
	}
	return true
}

// PromotePage migrates a page into FastMem, used by the coordinated
// manager when the VMM reports it hot, if it passes migratable.
func (o *OS) PromotePage(pfn PFN) bool {
	return o.migratable(pfn, memsim.FastMem) && o.movePageAcrossNodes(pfn, memsim.FastMem, true)
}

// DemotePage migrates a page out of FastMem to SlowMem, used by the
// coordinated manager to displace cold pages when FastMem is full. The
// same validity checks as PromotePage apply; clean page-cache pages are
// moved (not dropped — they may still be re-read).
func (o *OS) DemotePage(pfn PFN) bool {
	// OS-side knowledge the VMM lacks: the page may look cold to the
	// tracker (newly mapped, not yet scanned) while the guest knows it
	// was just used. Refuse to demote recently-used pages.
	if o.store.LastUse(pfn)+2 >= o.epoch && o.epoch >= 2 {
		o.ep.MigrationsSkipped++
		return false
	}
	return o.DemotePageForSwap(pfn)
}

// DemotePageForSwap demotes a page the tracker has judged worth
// displacing for a decisively hotter (or more store-intensive) one. It
// keeps every validity check but skips the recency guard: the caller's
// score margin, not staleness, justified the swap.
func (o *OS) DemotePageForSwap(pfn PFN) bool {
	return o.migratable(pfn, memsim.SlowMem) && o.demoteToSlow(pfn)
}

// movePageAcrossNodes implements aware-mode migration: allocate a frame
// on the target node (allocator paths only — reclaim must not recurse),
// copy contents, transfer identity (page table or page cache), free the
// source. Charges the per-page walk + copy costs of the default batch.
func (o *OS) movePageAcrossNodes(pfn PFN, target memsim.Tier, promotion bool) bool {
	if !o.cfg.Aware {
		panic("guestos: node migration in transparent mode")
	}
	srcIdx := o.nodeIndexOf(pfn)
	dstIdx := int(target)
	if srcIdx == dstIdx {
		return false
	}
	dst := o.nodes[dstIdx]
	newPfn, ok := dst.allocFrame()
	if !ok {
		if o.cfg.Placement.OnDemand && o.populateNode(dstIdx, populateBatchPages) > 0 {
			newPfn, ok = dst.allocFrame()
		}
		if !ok {
			return false
		}
	}
	st := o.store
	if st.Kind(newPfn) != KindFree {
		panic(fmt.Sprintf("guestos: migration target %d busy", newPfn))
	}

	// Copy metadata + contents.
	kind := st.Kind(pfn)
	vpn := st.VPN(pfn)
	tag := st.Tag(pfn)
	st.SetKind(newPfn, kind)
	st.SetAllFlags(newPfn, st.Flags(pfn)&^(FlagOnLRU|FlagActive))
	st.SetVPN(newPfn, vpn)
	st.SetLastUse(newPfn, st.LastUse(pfn))
	// The scanner's hotness history is biased at migration time:
	// promoted pages arrive presumed-hot and demoted pages presumed-cold,
	// so neither becomes an immediate candidate to move back. Fresh scan
	// evidence then takes over.
	if promotion {
		st.SetScanHeat(newPfn, 8)
	} else {
		st.SetScanHeat(newPfn, 0)
	}
	st.SetScanWriteHeat(newPfn, st.ScanWriteHeat(pfn))
	st.SetTag(newPfn, tag)
	o.Cum.AllocsByKind[kind]++
	// The destination frame was taken straight off the node free stack,
	// bypassing initPage, and its scan history was written directly: the
	// indexer must hear both transitions itself.
	if o.indexer != nil {
		o.indexer.PageFreeChanged(newPfn, false)
		o.indexer.PagesHeatChanged(int(newPfn>>6), 1<<(newPfn&63))
	}

	// Transfer identity.
	switch kind {
	case KindAnon:
		if vpn != NilVPN {
			o.AS.unmapPage(vpn)
			o.AS.mapPage(vpn, newPfn)
		}
	case KindPageCache:
		o.PC.Rekey(uint64(pfn), uint64(newPfn))
		if vpn != NilVPN {
			o.AS.unmapPage(vpn)
			o.AS.mapPage(vpn, newPfn)
		}
	default:
		panic(fmt.Sprintf("guestos: migrating unsupported kind %v", kind))
	}

	// LRU transfer: promotions arrive hot (active), demotions cold.
	wasActive := st.Has(pfn, FlagActive)
	if st.Has(pfn, FlagOnLRU) {
		o.lrus[srcIdx].Remove(pfn)
	}
	o.lrus[dstIdx].Insert(newPfn)
	if promotion || wasActive {
		// Activate via double reference.
		o.lrus[dstIdx].MarkAccessed(newPfn)
		o.lrus[dstIdx].MarkAccessed(newPfn)
	}

	// Free the source frame (identity already moved; clear VPN so
	// freePage does not try to unmap again).
	st.SetVPN(pfn, NilVPN)
	o.freePage(pfn)

	o.ep.OSTimeNs += o.costs.MigratePageWalkNs + o.costs.MigratePageCopyNs
	o.ep.OSTimeNs += o.costs.TLBFlushNs / migrationTLBBatch
	if promotion {
		o.ep.Promotions++
		o.promoteRing = append(o.promoteRing, admitSample{
			pfn: newPfn, tag: tag, epoch: o.epoch})
	} else {
		o.ep.Demotions++
		if len(o.demoteRing) < 4096 {
			o.demoteRing = append(o.demoteRing, admitSample{
				pfn: newPfn, tag: tag, epoch: o.epoch})
		}
	}
	if o.obs != nil {
		moveNs := o.costs.MigratePageWalkNs + o.costs.MigratePageCopyNs +
			o.costs.TLBFlushNs/migrationTLBBatch
		dir := obs.DirDemote
		if promotion {
			dir = obs.DirPromote
			o.obs.promotions.Inc()
		} else {
			o.obs.demotions.Inc()
		}
		o.obs.migrateNs.Observe(moveNs)
		// PFN is the page's new identity on the target node; Aux keeps
		// the source PFN so traces can follow a page across moves.
		o.obs.scope.Emit(obs.EvMigration, dir, uint8(target),
			uint64(newPfn), 1, uint64(pfn), moveNs)
	}
	return true
}

// migrationTLBBatch amortises one TLB shootdown over a batch of page
// moves (migrations are batched in practice).
const migrationTLBBatch = 64

// swapOutPage writes an anonymous page to swap and frees its frame.
func (o *OS) swapOutPage(pfn PFN) bool {
	st := o.store
	if st.Kind(pfn) != KindAnon {
		return false
	}
	vpn := st.VPN(pfn)
	if vpn == NilVPN {
		// Unmapped anon page (mid-teardown): just free it.
		o.freePage(pfn)
		return true
	}
	o.swap.add(vpn, st.Tag(pfn))
	o.AS.markSwapped(vpn)
	if v, ok := o.AS.FindVMA(vpn); ok {
		v.Resident--
	}
	st.SetVPN(pfn, NilVPN)
	o.freePage(pfn)
	o.ep.SwapOuts++
	o.ep.OSTimeNs += o.costs.SwapPageNs
	if o.obs != nil {
		o.obs.swapOuts.Inc()
	}
	return true
}

// EagerIOEvictions is the per-epoch cap on HeteroOS-LRU's eager eviction
// of released I/O pages from FastMem.
const EagerIOEvictions = 4096

// eagerEvictIOPages implements HeteroOS-LRU's rule that "I/O page and
// buffer cache pages [that] are released after an I/O request are marked
// inactive and immediately evicted from FastMem": cold (unreferenced,
// not recently used) cache pages at the FastMem inactive tail are
// dropped without waiting for general memory pressure.
func (o *OS) eagerEvictIOPages() {
	if !o.cfg.Aware {
		return
	}
	// Pressure gate: with ample free FastMem there is nothing to gain
	// from evicting I/O pages that might be re-read. The regret throttle
	// also applies — demoting pages that come straight back is waste.
	fast := o.Node(memsim.FastMem)
	if fast.FreePages() >= fast.HighWatermark || !o.reclaimWorthwhile() {
		return
	}
	l := o.lrus[memsim.FastMem]
	st := o.store
	epoch := o.epoch
	// Pages that are not idle I/O pages rotate so the walk can continue
	// past them.
	busy := func(pfn PFN) bool {
		return st.Kind(pfn) != KindPageCache || st.LastUse(pfn)+3 >= epoch
	}
	evicted := 0
	// Bounded walk from the inactive tail.
	scan := l.InactiveCount()
	for scan > 0 && evicted < EagerIOEvictions {
		r, _ := l.rotateRun(scan, busy)
		scan -= r
		if scan == 0 {
			break
		}
		scan--
		pfn := l.TailInactive()
		if pfn == NilPFN {
			break
		}
		// Demote to SlowMem rather than dropping: a SlowMem cache hit is
		// three orders of magnitude cheaper than a disk refault, and I/O
		// buffers "can be demoted to large-but-slowest memory"
		// (Section 4.3). Dirty pages, or a full SlowMem, fall back to
		// eviction.
		if !o.PC.Dirty(uint64(pfn)) &&
			o.Node(memsim.SlowMem).FreePages() > 0 && o.demoteToSlow(pfn) {
			evicted++
			continue
		}
		o.evictCachePage(pfn)
		evicted++
	}
}

// maintainWatermarks runs HeteroOS-LRU's per-tier threshold reclaim:
// background reclaim starts once free pages fall under the midpoint of
// the watermark band and restores the high mark, so the free buffer the
// coordinated manager promotes into is actually maintained.
func (o *OS) maintainWatermarks() {
	if !o.cfg.Aware {
		return
	}
	fast := o.Node(memsim.FastMem)
	if fast.FreePages() < (fast.LowWatermark+fast.HighWatermark)/2 {
		o.reclaimNode(int(memsim.FastMem), fast.ReclaimTarget())
	}
}
