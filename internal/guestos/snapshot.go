package guestos

import (
	"fmt"
	"sort"

	"heteroos/internal/guestos/slab"
	"heteroos/internal/memsim"
	"heteroos/internal/snapshot"
)

// SnapshotState codes the OS's complete mutable state in one field
// list for both directions. The encoding is deterministic: maps are
// emitted in sorted key order and every order-bearing structure (LRU
// links, free stacks, unpopulated slots) in its exact runtime order.
// Configuration (cfg, costs, callbacks) is not coded — reading overlays
// a freshly booted OS built from the same Config. Every piece of
// mutable state is overwritten, including state the boot path already
// consumed (frames, RNG draws), so the result is indistinguishable from
// the OS that took the snapshot. Any attached PageIndexer is NOT
// notified — the caller must re-seed or re-attach it afterwards.
//
// When reading, mapMFN translates the P2M column as it is decoded:
// every serialized machine frame number passes through it before
// landing in the page store. Cross-host live migration uses this to
// rebind a guest image onto the destination host's frames; the map must
// cover every backed MFN in the image and leave NilMFN fixed. A nil
// mapMFN is the identity (checkpoint restore); writing ignores it.
//
// The page store, the page-table tree, the buddy free blocks, the slab
// caches, the page cache and the swap map keep separate encode and
// decode code (Codec.Split): their readers rebuild derived structures
// the writers never touch.
func (o *OS) SnapshotState(c *snapshot.Codec, mapMFN func(memsim.MFN) memsim.MFN) error {
	c.RNG(o.rng)
	c.U32(&o.epoch)
	c.JSON(&o.ep)
	c.JSON(&o.Cum)
	c.JSON(&o.Window)
	c.JSON(&o.WindowLife)
	c.Split(o.snapshotStore, func(d *snapshot.Decoder) error { return o.restoreStore(d, mapMFN) })

	nodes := uint32(len(o.nodes))
	c.U32(&nodes)
	if int(nodes) != len(o.nodes) {
		return fmt.Errorf("guestos: snapshot has %d nodes, OS has %d", nodes, len(o.nodes))
	}
	for i, n := range o.nodes {
		c.U64(&n.populated)
		c.U64(&n.LowWatermark)
		c.U64(&n.HighWatermark)
		c.Split(n.Buddy.Snapshot, n.Buddy.Restore)
		snapshot.Slice(c, &n.free, c.U32)
		if c.Reading() && c.Err() == nil {
			c.Fail(o.checkFreeStack(i))
		}
		l := o.lrus[i]
		if c.Reading() {
			// Restoring may overlay a live LRU whose memo describes
			// the lists being replaced.
			l.memo = lapMemo{}
		}
		for _, lst := range []*lruList{&l.active, &l.inactive} {
			for _, end := range []*PFN{&lst.head, &lst.tail} {
				c.U64((*uint64)(end))
				if c.Reading() && *end != NilPFN && uint64(*end) >= o.store.Len() {
					return fmt.Errorf("guestos: snapshot node %d LRU end %d outside store", i, *end)
				}
			}
			c.U64(&lst.count)
		}
		snapshot.Slice(c, &o.unpopulated[i], func(slot *uint32) {
			pfn := uint64(*slot)
			c.U64(&pfn)
			if c.Reading() && !n.Contains(PFN(pfn)) {
				c.Fail(fmt.Errorf("guestos: snapshot node %d unpopulated slot %d outside span [%d,+%d)",
					i, pfn, n.Base, n.MaxPages))
				return
			}
			*slot = uint32(pfn)
		})
	}

	if err := o.AS.snapshotState(c); err != nil {
		return err
	}
	c.Split(o.PC.Snapshot, o.PC.Restore)

	names := make([]string, 0, len(o.Slabs))
	for name := range o.Slabs {
		names = append(names, name)
	}
	sort.Strings(names)
	slabs := uint32(len(names))
	c.U32(&slabs)
	if int(slabs) != len(names) {
		return fmt.Errorf("guestos: snapshot has %d slab caches, OS has %d", slabs, len(names))
	}
	for _, name := range names {
		c.Split(o.Slabs[name].Snapshot, o.Slabs[name].Restore)
	}

	c.Split(o.swap.snapshot, o.swap.restore)
	c.U64(&o.swap.outs)
	c.U64(&o.swap.ins)

	snapshot.Slice(c, &o.netRefs, func(r *slab.ObjRef) {
		c.U64(&r.SlabBase)
		c.Int(&r.Index)
	})

	for _, ring := range []*[]admitSample{&o.admitRing, &o.promoteRing, &o.demoteRing} {
		snapshot.Slice(c, ring, func(s *admitSample) {
			c.U64((*uint64)(&s.pfn))
			c.U64(&s.tag)
			c.U32(&s.epoch)
		})
	}
	c.F64(&o.admitRate)
	c.F64(&o.promoteRate)
	c.F64(&o.demoteRegret)
	c.Int(&o.admitSeen)
	c.Int(&o.promoteSeen)
	c.Int(&o.demoteSeen)
	if c.Reading() {
		// The mapping generation is not serialized; the restored address
		// space starts a fresh count, so drop any cached tracking list.
		o.trackValid = false
	}
	return c.Err()
}

// snapshot emits the swap map in sorted VPN order.
func (s *swapSpace) snapshot(e *snapshot.Encoder) {
	vpns := make([]uint64, 0, len(s.slots))
	for vpn := range s.slots {
		vpns = append(vpns, uint64(vpn))
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	e.U32(uint32(len(vpns)))
	for _, vpn := range vpns {
		e.U64(vpn)
		e.U64(s.slots[VPN(vpn)])
	}
}

func (s *swapSpace) restore(d *snapshot.Decoder) error {
	n := int(d.U32())
	s.slots = make(map[VPN]uint64, n)
	for i := 0; i < n; i++ {
		vpn := VPN(d.U64())
		s.slots[vpn] = d.U64()
	}
	return d.Err()
}

// snapshotStore emits the page store sparsely and columnar: only frames
// whose metadata differs from the boot-time default, as a PFN list
// followed by one array per field in the PFN list's order. The column
// layout mirrors the in-memory struct-of-arrays store; the five flag
// bitmaps are materialized into one PageFlags byte per page, and the
// 32-bit MFN, VPN and link columns are written widened to 64 bits.
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
	// The MFN, VPN and link columns are coded as 64-bit values; each must
	// be nil or below its limit before it is narrowed into the store. The
	// MFN column passes through mapMFN first.
	narrowCol := func(col []uint32, name string, limit uint64, mapMFN func(memsim.MFN) memsim.MFN) error {
		for _, pfn := range pfns {
			v := d.U64()
			if mapMFN != nil {
				v = uint64(mapMFN(memsim.MFN(v)))
			}
			if v != ^uint64(0) && v >= limit {
				return fmt.Errorf("guestos: snapshot page store: pfn %d %s %d outside [0,%d)", pfn, name, v, limit)
			}
			col[pfn] = uint32(v)
		}
		return nil
	}
	if err := narrowCol(st.mfn, "MFN", memsim.MaxFrames, mapMFN); err != nil {
		return err
	}
	for _, pfn := range pfns {
		st.SetKind(pfn, PageKind(d.U8()))
	}
	for _, pfn := range pfns {
		st.SetAllFlags(pfn, PageFlags(d.U8()))
	}
	if err := narrowCol(st.vpn, "VPN", memsim.MaxFrames, nil); err != nil {
		return err
	}
	if err := narrowCol(st.lruPrev, "lruPrev", st.Len(), nil); err != nil {
		return err
	}
	if err := narrowCol(st.lruNext, "lruNext", st.Len(), nil); err != nil {
		return err
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

// snapshotState codes the address space: VMAs in creation order, the
// allocation cursors, counters, and the page-table tree (pre-order,
// with per-node frame numbers — table frames are real guest pages and
// must survive a round trip).
func (a *AddrSpace) snapshotState(c *snapshot.Codec) error {
	vmas := make([]*VMA, len(a.order))
	for i, id := range a.order {
		vmas[i] = a.vmas[id]
	}
	snapshot.Slice(c, &vmas, func(v **VMA) {
		if *v == nil {
			*v = new(VMA)
		}
		kind := uint8((*v).Kind)
		c.U32((*uint32)(&(*v).ID))
		c.U64((*uint64)(&(*v).Start))
		c.U64(&(*v).Pages)
		c.U8(&kind)
		c.U32((*uint32)(&(*v).File))
		c.U64(&(*v).Resident)
		(*v).Kind = PageKind(kind)
	})
	if c.Reading() && c.Err() == nil {
		a.vmas = make(map[VMAID]*VMA, len(vmas))
		a.order = make([]VMAID, len(vmas))
		for i, v := range vmas {
			a.vmas[v.ID] = v
			a.order[i] = v.ID
		}
	}
	c.U32((*uint32)(&a.nextID))
	c.U64((*uint64)(&a.nextVPN))
	c.U64(&a.ptPages)
	c.U64(&a.faults)
	c.U64(&a.swapIns)
	c.U64(&a.walkSteps)
	c.Split(a.snapshotTable, a.restoreTable)
	return c.Err()
}

func (a *AddrSpace) snapshotTable(e *snapshot.Encoder) {
	e.Bool(a.root != nil)
	if a.root != nil {
		snapshotPTNode(e, a.root, ptLevels-1)
	}
}

func (a *AddrSpace) restoreTable(d *snapshot.Decoder) error {
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
