package guestos

import (
	"fmt"
	"sort"

	"heteroos/internal/guestos/slab"
	"heteroos/internal/memsim"
	"heteroos/internal/snapshot"
)

// SnapshotState serializes the OS's complete mutable state. The encoding
// is deterministic: maps are emitted in sorted key order and every
// order-bearing structure (LRU links, free stacks, unpopulated slots) in
// its exact runtime order. Configuration (cfg, costs, callbacks) is not
// serialized — RestoreState overlays a freshly booted OS built from the
// same Config.
func (o *OS) SnapshotState(e *snapshot.Encoder) {
	st := o.rng.State()
	for _, s := range st {
		e.U64(s)
	}
	e.U32(o.epoch)
	e.JSON(o.ep)
	e.JSON(o.Cum)
	e.JSON(o.Window)
	e.JSON(o.WindowLife)

	o.snapshotStore(e)

	e.U32(uint32(len(o.nodes)))
	for i, n := range o.nodes {
		e.U64(n.populated)
		e.U64(n.LowWatermark)
		e.U64(n.HighWatermark)
		n.Buddy.Snapshot(e)
		n.PCP.Snapshot(e)
		l := o.lrus[i]
		for _, lst := range []*lruList{&l.active, &l.inactive} {
			e.U64(uint64(lst.head))
			e.U64(uint64(lst.tail))
			e.U64(lst.count)
		}
		e.U64(l.activations)
		e.U64(l.deactivations)
		slots := o.unpopulated[i]
		e.U32(uint32(len(slots)))
		for _, pfn := range slots {
			e.U64(uint64(pfn))
		}
	}

	o.AS.snapshot(e)
	o.PC.Snapshot(e)

	names := make([]string, 0, len(o.Slabs))
	for name := range o.Slabs {
		names = append(names, name)
	}
	sort.Strings(names)
	e.U32(uint32(len(names)))
	for _, name := range names {
		o.Slabs[name].Snapshot(e)
	}

	vpns := make([]uint64, 0, len(o.swap.slots))
	for vpn := range o.swap.slots {
		vpns = append(vpns, uint64(vpn))
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	e.U32(uint32(len(vpns)))
	for _, vpn := range vpns {
		e.U64(vpn)
		e.U64(o.swap.slots[VPN(vpn)])
	}
	e.U64(o.swap.outs)
	e.U64(o.swap.ins)

	e.U32(uint32(len(o.netRefs)))
	for _, r := range o.netRefs {
		e.U64(r.SlabBase)
		e.Int(r.Index)
	}

	snapshotRing(e, o.admitRing)
	snapshotRing(e, o.promoteRing)
	snapshotRing(e, o.demoteRing)
	e.F64(o.admitRate)
	e.F64(o.promoteRate)
	e.F64(o.demoteRegret)
	e.Int(o.admitSeen)
	e.Int(o.promoteSeen)
	e.Int(o.demoteSeen)
}

// RestoreState overlays a snapshot onto a freshly booted OS with the
// same Config. Every piece of mutable state is overwritten, including
// state the boot path already consumed (frames, RNG draws), so the
// result is indistinguishable from the OS that took the snapshot. Any
// attached PageIndexer is NOT notified — the caller must re-seed or
// re-attach it afterwards.
//
// mapMFN translates the P2M column as it is decoded: every serialized
// machine frame number passes through it before landing in the page
// store. Cross-host live migration uses this to rebind a guest image
// onto the destination host's frames; the map must cover every backed
// MFN in the image and leave NilMFN fixed. A nil mapMFN is the
// identity (checkpoint restore).
func (o *OS) RestoreState(d *snapshot.Decoder, mapMFN func(memsim.MFN) memsim.MFN) error {
	var st [4]uint64
	for i := range st {
		st[i] = d.U64()
	}
	o.rng.Restore(st)
	o.epoch = d.U32()
	if err := d.JSON(&o.ep); err != nil {
		return err
	}
	if err := d.JSON(&o.Cum); err != nil {
		return err
	}
	if err := d.JSON(&o.Window); err != nil {
		return err
	}
	if err := d.JSON(&o.WindowLife); err != nil {
		return err
	}

	if err := o.restoreStore(d, mapMFN); err != nil {
		return err
	}

	if n := int(d.U32()); n != len(o.nodes) {
		return fmt.Errorf("guestos: snapshot has %d nodes, OS has %d", n, len(o.nodes))
	}
	for i, n := range o.nodes {
		n.populated = d.U64()
		n.LowWatermark = d.U64()
		n.HighWatermark = d.U64()
		if err := n.Buddy.Restore(d); err != nil {
			return err
		}
		if err := n.PCP.Restore(d); err != nil {
			return err
		}
		l := o.lrus[i]
		for _, lst := range []*lruList{&l.active, &l.inactive} {
			lst.head = PFN(d.U64())
			lst.tail = PFN(d.U64())
			lst.count = d.U64()
		}
		l.activations = d.U64()
		l.deactivations = d.U64()
		slots := make([]PFN, int(d.U32()))
		for j := range slots {
			slots[j] = PFN(d.U64())
		}
		o.unpopulated[i] = slots
	}

	if err := o.AS.restore(d); err != nil {
		return err
	}
	if err := o.PC.Restore(d); err != nil {
		return err
	}

	if n := int(d.U32()); n != len(o.Slabs) {
		return fmt.Errorf("guestos: snapshot has %d slab caches, OS has %d", n, len(o.Slabs))
	}
	names := make([]string, 0, len(o.Slabs))
	for name := range o.Slabs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := o.Slabs[name].Restore(d); err != nil {
			return err
		}
	}

	nswap := int(d.U32())
	o.swap.slots = make(map[VPN]uint64, nswap)
	for i := 0; i < nswap; i++ {
		vpn := VPN(d.U64())
		o.swap.slots[vpn] = d.U64()
	}
	o.swap.outs = d.U64()
	o.swap.ins = d.U64()

	o.netRefs = o.netRefs[:0]
	for i, n := 0, int(d.U32()); i < n; i++ {
		base := d.U64()
		o.netRefs = append(o.netRefs, slab.ObjRef{SlabBase: base, Index: d.Int()})
	}

	o.admitRing = restoreRing(d)
	o.promoteRing = restoreRing(d)
	o.demoteRing = restoreRing(d)
	o.admitRate = d.F64()
	o.promoteRate = d.F64()
	o.demoteRegret = d.F64()
	o.admitSeen = d.Int()
	o.promoteSeen = d.Int()
	o.demoteSeen = d.Int()
	// The mapping generation is not serialized; the restored address
	// space starts a fresh count, so drop any cached tracking list.
	o.trackValid = false
	return d.Err()
}

func snapshotRing(e *snapshot.Encoder, ring []admitSample) {
	e.U32(uint32(len(ring)))
	for _, s := range ring {
		e.U64(uint64(s.pfn))
		e.U64(s.tag)
		e.U32(s.epoch)
	}
}

func restoreRing(d *snapshot.Decoder) []admitSample {
	n := int(d.U32())
	if n == 0 {
		return nil
	}
	ring := make([]admitSample, n)
	for i := range ring {
		ring[i] = admitSample{pfn: PFN(d.U64()), tag: d.U64(), epoch: d.U32()}
	}
	return ring
}

// snapshotStore emits the page store sparsely and columnar: only frames
// whose metadata differs from the boot-time default, as a PFN list
// followed by one array per field in the PFN list's order. The column
// layout mirrors the in-memory struct-of-arrays store; the five flag
// bitmaps are materialized into one PageFlags byte per page.
func (o *OS) snapshotStore(e *snapshot.Encoder) {
	st := o.store
	e.U64(st.Len())
	pfns := make([]PFN, 0, 1024)
	for pfn := PFN(0); pfn < PFN(st.Len()); pfn++ {
		if !st.IsDefault(pfn) {
			pfns = append(pfns, pfn)
		}
	}
	e.U32(uint32(len(pfns)))
	for _, pfn := range pfns {
		e.U64(uint64(pfn))
	}
	for _, pfn := range pfns {
		e.U64(uint64(st.MFN(pfn)))
	}
	for _, pfn := range pfns {
		e.U8(uint8(st.Kind(pfn)))
	}
	for _, pfn := range pfns {
		e.U8(uint8(st.Flags(pfn)))
	}
	for _, pfn := range pfns {
		e.U64(uint64(st.VPN(pfn)))
	}
	for _, pfn := range pfns {
		e.U64(uint64(st.LRUPrev(pfn)))
	}
	for _, pfn := range pfns {
		e.U64(uint64(st.LRUNext(pfn)))
	}
	for _, pfn := range pfns {
		e.U32(st.LastUse(pfn))
	}
	for _, pfn := range pfns {
		e.U8(st.ScanHeat(pfn))
	}
	for _, pfn := range pfns {
		e.U8(st.ScanWriteHeat(pfn))
	}
	for _, pfn := range pfns {
		e.U64(st.Tag(pfn))
	}
}

func (o *OS) restoreStore(d *snapshot.Decoder, mapMFN func(memsim.MFN) memsim.MFN) error {
	st := o.store
	if n := d.U64(); n != st.Len() {
		return fmt.Errorf("guestos: snapshot store spans %d frames, OS has %d", n, st.Len())
	}
	st.ResetAll()
	pfns := make([]PFN, int(d.U32()))
	for i := range pfns {
		pfn := d.U64()
		if pfn >= st.Len() {
			return fmt.Errorf("guestos: snapshot page %d outside store", pfn)
		}
		pfns[i] = PFN(pfn)
	}
	for _, pfn := range pfns {
		mfn := memsim.MFN(d.U64())
		if mapMFN != nil {
			mfn = mapMFN(mfn)
		}
		st.SetMFN(pfn, mfn)
	}
	for _, pfn := range pfns {
		st.SetKind(pfn, PageKind(d.U8()))
	}
	for _, pfn := range pfns {
		st.SetAllFlags(pfn, PageFlags(d.U8()))
	}
	for _, pfn := range pfns {
		st.SetVPN(pfn, VPN(d.U64()))
	}
	for _, pfn := range pfns {
		st.lruPrev[pfn] = PFN(d.U64())
	}
	for _, pfn := range pfns {
		st.lruNext[pfn] = PFN(d.U64())
	}
	for _, pfn := range pfns {
		st.SetLastUse(pfn, d.U32())
	}
	for _, pfn := range pfns {
		st.SetScanHeat(pfn, d.U8())
	}
	for _, pfn := range pfns {
		st.SetScanWriteHeat(pfn, d.U8())
	}
	for _, pfn := range pfns {
		st.SetTag(pfn, d.U64())
	}
	return d.Err()
}

// snapshot serializes the address space: VMAs in creation order, the
// allocation cursors, counters, and the page-table tree (pre-order, with
// per-node frame numbers — table frames are real guest pages and must
// survive a round trip).
func (a *AddrSpace) snapshot(e *snapshot.Encoder) {
	e.U32(uint32(len(a.order)))
	for _, id := range a.order {
		v := a.vmas[id]
		e.U32(uint32(v.ID))
		e.U64(uint64(v.Start))
		e.U64(v.Pages)
		e.U8(uint8(v.Kind))
		e.U32(uint32(v.File))
		e.U64(v.Resident)
	}
	e.U32(uint32(a.nextID))
	e.U64(uint64(a.nextVPN))
	e.U64(a.ptPages)
	e.U64(a.faults)
	e.U64(a.swapIns)
	e.U64(a.walkSteps)
	e.Bool(a.root != nil)
	if a.root != nil {
		snapshotPTNode(e, a.root, ptLevels-1)
	}
}

func snapshotPTNode(e *snapshot.Encoder, n *ptNode, level int) {
	e.U64(uint64(n.pfn))
	if level == 0 {
		var count uint16
		for _, l := range n.leaves {
			if l != ptEntryAbsent {
				count++
			}
		}
		e.U16(count)
		for idx, l := range n.leaves {
			if l != ptEntryAbsent {
				e.U16(uint16(idx))
				e.U64(uint64(l))
			}
		}
		return
	}
	var count uint16
	for _, c := range n.children {
		if c != nil {
			count++
		}
	}
	e.U16(count)
	for idx, c := range n.children {
		if c != nil {
			e.U16(uint16(idx))
			snapshotPTNode(e, c, level-1)
		}
	}
}

func (a *AddrSpace) restore(d *snapshot.Decoder) error {
	nv := int(d.U32())
	a.vmas = make(map[VMAID]*VMA, nv)
	a.order = make([]VMAID, 0, nv)
	for i := 0; i < nv; i++ {
		v := &VMA{
			ID:    VMAID(d.U32()),
			Start: VPN(d.U64()),
			Pages: d.U64(),
			Kind:  PageKind(d.U8()),
			File:  FileID(d.U32()),
		}
		v.Resident = d.U64()
		a.vmas[v.ID] = v
		a.order = append(a.order, v.ID)
	}
	a.nextID = VMAID(d.U32())
	a.nextVPN = VPN(d.U64())
	a.ptPages = d.U64()
	a.faults = d.U64()
	a.swapIns = d.U64()
	a.walkSteps = d.U64()
	a.root, a.leaf = nil, nil
	if d.Bool() {
		root, err := restorePTNode(d, ptLevels-1)
		if err != nil {
			return err
		}
		a.root = root
	}
	return d.Err()
}

func restorePTNode(d *snapshot.Decoder, level int) (*ptNode, error) {
	n := &ptNode{pfn: PFN(d.U64())}
	count := int(d.U16())
	if count > ptFanout {
		return nil, fmt.Errorf("mm: snapshot page-table node with %d entries", count)
	}
	if level == 0 {
		n.leaves = make([]PFN, ptFanout)
		for i := range n.leaves {
			n.leaves[i] = ptEntryAbsent
		}
		for i := 0; i < count; i++ {
			idx := int(d.U16())
			if idx >= ptFanout {
				return nil, fmt.Errorf("mm: snapshot leaf index %d out of range", idx)
			}
			n.leaves[idx] = PFN(d.U64())
			n.live++
		}
		return n, d.Err()
	}
	n.children = make([]*ptNode, ptFanout)
	for i := 0; i < count; i++ {
		idx := int(d.U16())
		if idx >= ptFanout {
			return nil, fmt.Errorf("mm: snapshot child index %d out of range", idx)
		}
		child, err := restorePTNode(d, level-1)
		if err != nil {
			return nil, err
		}
		n.children[idx] = child
		n.live++
	}
	return n, d.Err()
}
