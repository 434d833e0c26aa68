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
// Every structure, the page store, page-table tree, buddy free blocks,
// slab caches, page cache and swap map included, is one field list for
// both directions; what only reading does (rebuilding derived maps,
// validating what was read) runs under c.Reading() after the list.
func (o *OS) SnapshotState(c *snapshot.Codec, mapMFN func(memsim.MFN) memsim.MFN) error {
	c.RNG(o.rng)
	c.U32(&o.epoch)
	c.JSON(&o.ep)
	c.JSON(&o.Cum)
	c.JSON(&o.Window)
	c.JSON(&o.WindowLife)
	if err := o.storeState(c, mapMFN); err != nil {
		return err
	}

	nodes := uint32(len(o.nodes))
	c.U32(&nodes)
	if int(nodes) != len(o.nodes) {
		return fmt.Errorf("guestos: snapshot has %d nodes, OS has %d", nodes, len(o.nodes))
	}
	for i, n := range o.nodes {
		c.U64(&n.populated)
		c.U64(&n.LowWatermark)
		c.U64(&n.HighWatermark)
		c.Fail(n.Buddy.SnapshotState(c))
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
	c.Fail(o.PC.SnapshotState(c))

	slabs := uint32(NumSlabs)
	c.U32(&slabs)
	if slabs != uint32(NumSlabs) {
		return fmt.Errorf("guestos: snapshot has %d slab caches, OS has %d", slabs, NumSlabs)
	}
	for _, sc := range o.Slabs {
		c.Fail(sc.SnapshotState(c))
	}
	o.swap.state(c)

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

// state codes the swap map as (VPN, tag) pairs in VPN order.
func (s *swapSpace) state(c *snapshot.Codec) {
	type pair struct {
		vpn VPN
		tag uint64
	}
	pairs := make([]pair, 0, len(s.slots))
	for vpn, tag := range s.slots {
		pairs = append(pairs, pair{vpn, tag})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].vpn < pairs[j].vpn })
	snapshot.Slice(c, &pairs, func(p *pair) {
		c.U64((*uint64)(&p.vpn))
		c.U64(&p.tag)
	})
	if c.Reading() && c.Err() == nil {
		s.slots = make(map[VPN]uint64, len(pairs))
		for _, p := range pairs {
			s.slots[p.vpn] = p.tag
		}
	}
}

// storeState codes the page store sparsely and columnar: only frames
// whose metadata differs from the boot-time default, as a PFN list
// followed by one column per field in the PFN list's order. The column
// layout mirrors the in-memory struct-of-arrays store; the five flag
// bitmaps are materialized into one PageFlags byte per page, and the
// 32-bit MFN, VPN and link columns are coded widened to 64 bits.
// Reading resets the store first and passes the MFN column through
// mapMFN.
func (o *OS) storeState(c *snapshot.Codec, mapMFN func(memsim.MFN) memsim.MFN) error {
	st := o.store
	n := st.Len()
	c.U64(&n)
	if c.Reading() && c.Err() == nil && n != st.Len() {
		return fmt.Errorf("guestos: snapshot store spans %d frames, OS has %d", n, st.Len())
	}
	var pfns []PFN
	if c.Reading() {
		st.ResetAll()
	} else {
		pfns = make([]PFN, 0, 1024)
		for pfn := PFN(0); pfn < PFN(st.Len()); pfn++ {
			if !st.IsDefault(pfn) {
				pfns = append(pfns, pfn)
			}
		}
	}
	snapshot.Slice(c, &pfns, func(pfn *PFN) {
		c.U64((*uint64)(pfn))
		if c.Reading() && uint64(*pfn) >= st.Len() {
			c.Fail(fmt.Errorf("guestos: snapshot page %d outside store", *pfn))
		}
	})
	if err := c.Err(); err != nil {
		return err
	}
	// A narrowed column's values must each be nil or below limit before
	// they land in the store. The MFN column passes through mapMFN first.
	narrowCol := func(col []uint32, name string, limit uint64, mapMFN func(memsim.MFN) memsim.MFN) {
		for _, pfn := range pfns {
			v := widen(col[pfn])
			c.U64(&v)
			if !c.Reading() || c.Err() != nil {
				continue
			}
			if mapMFN != nil {
				v = uint64(mapMFN(memsim.MFN(v)))
			}
			if v != ^uint64(0) && v >= limit {
				c.Fail(fmt.Errorf("guestos: snapshot page store: pfn %d %s %d outside [0,%d)", pfn, name, v, limit))
				return
			}
			col[pfn] = uint32(v)
		}
	}
	// A byte column whose setter maintains a derived bitmap.
	byteCol := func(get func(PFN) uint8, set func(PFN, uint8)) {
		for _, pfn := range pfns {
			v := get(pfn)
			c.U8(&v)
			if c.Reading() {
				set(pfn, v)
			}
		}
	}
	narrowCol(st.mfn, "MFN", memsim.MaxFrames, mapMFN)
	for _, pfn := range pfns {
		c.U8(&st.kind[pfn])
	}
	byteCol(func(pfn PFN) uint8 { return uint8(st.Flags(pfn)) },
		func(pfn PFN, f uint8) { st.SetAllFlags(pfn, PageFlags(f)) })
	narrowCol(st.vpn, "VPN", memsim.MaxFrames, nil)
	narrowCol(st.lruPrev, "lruPrev", st.Len(), nil)
	narrowCol(st.lruNext, "lruNext", st.Len(), nil)
	for _, pfn := range pfns {
		c.U32(&st.lastUse[pfn])
	}
	byteCol(st.ScanHeat, st.SetScanHeat)
	byteCol(st.ScanWriteHeat, st.SetScanWriteHeat)
	for _, pfn := range pfns {
		c.U64(&st.tag[pfn])
	}
	return c.Err()
}

// snapshotState codes the address space: VMAs in creation order, the
// allocation cursors, the page-table page count, and the page tables
// (pre-order, with per-table frame numbers — table frames are real
// guest pages and must survive a round trip).
func (a *AddrSpace) snapshotState(c *snapshot.Codec) error {
	snapshot.Slice(c, &a.order, func(v **VMA) {
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
		for i := 1; i < len(a.order); i++ {
			if a.order[i].ID <= a.order[i-1].ID {
				return fmt.Errorf("mm: snapshot VMA %d follows %d", a.order[i].ID, a.order[i-1].ID)
			}
		}
	}
	c.U32((*uint32)(&a.nextID))
	c.U64((*uint64)(&a.nextVPN))
	c.U64(&a.ptPages)
	hasRoot := len(a.tables) > 0
	c.Bool(&hasRoot)
	if c.Reading() {
		// The tables read replace the live ones, whose leaf blocks are
		// cleared for reuse.
		a.leaf = noLeaf
		for _, t := range a.tables {
			if t.ents != nil {
				for i := range t.ents {
					t.ents[i] = ptAbsent32
				}
				a.spare = append(a.spare, t.ents)
			}
		}
		clear(a.tables)
		a.tables = a.tables[:0]
	}
	if hasRoot {
		next := 0
		a.ptTableState(c, &next, ptLevels-1, 0)
	}
	return c.Err()
}

// ptTableState codes one page table and its subtree in pre-order: the
// table's frame, its entry count (u16), then per present entry its
// index (u16, ascending) followed by the leaf frame (widened to 64
// bits) or the child's subtree. Writing codes a.tables[*next]; reading
// appends the level-level table at base. Either way *next then moves
// past the subtree. Reading rejects a table frame past
// memsim.MaxFrames, and a leaf frame that is neither a marker nor below
// it, before narrowing them.
func (a *AddrSpace) ptTableState(c *snapshot.Codec, next *int, level int, base VPN) {
	if c.Reading() {
		t := ptTable{base: base, level: uint8(level)}
		if level == 0 {
			t.ents = a.leafBlock()
		}
		a.tables = append(a.tables, t)
	}
	i := *next
	*next++
	pfn := uint64(a.tables[i].pfn)
	c.U64(&pfn)
	if c.Reading() && c.Err() == nil && pfn >= memsim.MaxFrames {
		c.Fail(fmt.Errorf("mm: snapshot page table in frame %d, past MaxFrames", pfn))
		return
	}
	a.tables[i].pfn = uint32(pfn)
	var buf [ptFanout]uint16
	idxs := buf[:0]
	if !c.Reading() {
		if level == 0 {
			for k, e := range a.tables[i].ents {
				if e != ptAbsent32 {
					idxs = append(idxs, uint16(k))
				}
			}
		} else {
			// The children are the subtree's tables one level down.
			for j := i + 1; j < len(a.tables) && int(a.tables[j].level) < level; j++ {
				if int(a.tables[j].level) == level-1 {
					idxs = append(idxs, uint16(ptIndex(a.tables[j].base, level)))
				}
			}
		}
	}
	count := uint16(len(idxs))
	c.U16(&count)
	if c.Reading() && c.Err() == nil {
		if count > ptFanout {
			c.Fail(fmt.Errorf("mm: snapshot page-table node with %d entries", count))
			return
		}
		idxs = buf[:count]
	}
	for k := range idxs {
		c.U16(&idxs[k])
		if c.Err() != nil {
			return
		}
		idx := int(idxs[k])
		if idx >= ptFanout || k > 0 && idx <= int(idxs[k-1]) {
			c.Fail(fmt.Errorf("mm: snapshot page-table entry index %d out of range or order", idx))
			return
		}
		if level > 0 {
			a.ptTableState(c, next, level-1, base+VPN(idx)<<(uint(level)*ptFanoutBits))
		} else {
			e := &a.tables[i].ents[idx]
			v := widen(*e)
			c.U64(&v)
			if c.Reading() && c.Err() == nil {
				if v != uint64(ptEntryAbsent) && v != uint64(ptEntrySwapped) && v >= memsim.MaxFrames {
					c.Fail(fmt.Errorf("mm: snapshot leaf for VPN %d maps frame %d, past MaxFrames", base+VPN(idx), v))
					return
				}
				*e = uint32(v)
			}
		}
		if c.Reading() {
			a.tables[i].live++
		}
	}
}
