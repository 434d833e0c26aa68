package guestos

import (
	"fmt"
	"slices"
	"sort"

	"heteroos/internal/memsim"
)

// VMAID identifies a virtual memory area.
type VMAID uint32

// VMA is one contiguous virtual memory region of the guest application:
// an anonymous (heap) mapping or a file mapping backed by the page
// cache. The coordinated manager exports VMA extents to the VMM as the
// hotness tracking list (Section 4.1: "we extract it using the virtual
// memory area (VMA) structure").
type VMA struct {
	ID    VMAID
	Start VPN
	Pages uint64
	Kind  PageKind // KindAnon or KindPageCache (file-mapped)
	File  FileID   // for file mappings
	// Resident counts currently mapped pages.
	Resident uint64
}

// End returns one past the last VPN.
func (v *VMA) End() VPN { return v.Start + VPN(v.Pages) }

// Contains reports whether vpn falls inside the area.
func (v *VMA) Contains(vpn VPN) bool { return vpn >= v.Start && vpn < v.End() }

// Page-table geometry: x86-64 four-level paging, 9 bits per level.
const (
	ptLevels       = 4
	ptFanoutBits   = 9
	ptFanout       = 1 << ptFanoutBits
	ptFanoutMask   = ptFanout - 1
	vmaGuardPages  = 16 // unmapped gap between VMAs
	ptEntryAbsent  = NilPFN
	ptEntrySwapped = NilPFN - 1 // leaf marker: page is in swap
	// Leaf tables store entries narrowed to 32 bits, as the page store
	// does; widen turns these back into ptEntryAbsent and ptEntrySwapped.
	ptAbsent32  = nil32
	ptSwapped32 = nil32 - 1
	noLeaf      = -1 // AddrSpace.leaf when the leaf cache is empty
)

// ptTable is one page-table page. Each consumes one guest frame of
// KindPageTable, so page-table page counts (Figure 4) are real. A table
// of level l covers the 512^(l+1) VPNs from base. Leaf tables (level 0)
// hold 512 narrowed entries; interior tables hold only their count of
// child tables, which follow them in the address space's pre-order
// table list.
type ptTable struct {
	ents  []uint32 // leaf entries; nil for interior tables
	base  VPN      // first VPN covered
	pfn   uint32   // the frame holding this table
	live  uint16   // live entries or child tables; freed when it reaches 0
	level uint8
}

// ptBase returns the base of the level-level table covering vpn.
func ptBase(vpn VPN, level int) VPN {
	return vpn &^ (1<<(uint(level+1)*ptFanoutBits) - 1)
}

// ptOrd is the pre-order sort key of a table: ascending base, and a
// parent before the child that shares its base.
func ptOrd(base VPN, level int) uint64 {
	return uint64(base)<<2 | uint64(ptLevels-1-level)
}

// AddrSpace is the application address space of a guest VM: the VMA set
// plus the page table. The simulator models one address space per VM
// (the paper's workloads are one application per VM).
type AddrSpace struct {
	os      *OS
	order   []*VMA // creation order, so IDs ascend
	nextID  VMAID
	nextVPN VPN

	// tables is the page table, one record per table page in pre-order:
	// a table is followed by its children's subtrees in ascending index
	// order. Walks binary-search it by ptOrd.
	tables []ptTable
	// spare holds the entry blocks of freed leaf tables, all absent, for
	// the next leaf table to reuse.
	spare   [][]uint32
	ptPages uint64

	// leaf caches the index in tables of the level-0 table of the last
	// walk that reached one, covering VPNs with vpn>>ptFanoutBits ==
	// leafKey. Touches come in ascending VPN order, so consecutive walks
	// mostly land in the same table. Cleared wherever a table is added or
	// freed and when restore replaces the tables; not serialized.
	leaf    int
	leafKey VPN

	// mapGen counts mapping mutations (VMA create/destroy, leaf entry
	// writes). OS.TrackingList caches its export against it, so only
	// passes after real mapping churn pay the VMA re-walk. Not
	// serialized: a restored address space starts a fresh generation and
	// the caller's caches revalidate by rebuilding once.
	mapGen uint64
}

func newAddrSpace(os *OS) *AddrSpace {
	return &AddrSpace{
		os:      os,
		nextID:  1,
		nextVPN: 1 << 20, // start high enough to keep VPN 0 unused
		leaf:    noLeaf,
	}
}

// Mmap creates a new VMA of pages pages. kind must be KindAnon (heap)
// or KindPageCache (file mapping, with file naming the backing file).
// Pages are not populated until touched (demand paging). Every VPN
// handed out is below memsim.MaxFrames, since the page store keeps
// reverse-map VPNs in 32 bits; a mapping that would end past it fails.
func (a *AddrSpace) Mmap(pages uint64, kind PageKind, file FileID) (*VMA, error) {
	if pages == 0 {
		return nil, fmt.Errorf("mm: zero-page mmap")
	}
	if kind != KindAnon && kind != KindPageCache {
		return nil, fmt.Errorf("mm: mmap of kind %v not supported", kind)
	}
	if uint64(a.nextVPN) > memsim.MaxFrames || pages > memsim.MaxFrames-uint64(a.nextVPN) {
		return nil, fmt.Errorf("mm: mmap of %d pages at VPN %d ends past MaxFrames %d",
			pages, a.nextVPN, uint64(memsim.MaxFrames))
	}
	v := &VMA{ID: a.nextID, Start: a.nextVPN, Pages: pages, Kind: kind, File: file}
	a.nextID++
	a.nextVPN += VPN(pages + vmaGuardPages)
	a.order = append(a.order, v)
	a.mapGen++
	return v, nil
}

// Munmap removes a VMA, unmapping and releasing all resident pages.
// Anonymous pages are freed; file-mapped pages remain in the page cache
// (they belong to the file, not the mapping).
func (a *AddrSpace) Munmap(id VMAID) error {
	v, ok := a.VMAByID(id)
	if !ok {
		return fmt.Errorf("mm: munmap of unknown VMA %d", id)
	}
	for vpn := v.Start; vpn < v.End(); {
		// Stretches no leaf table covers are skipped a table at a time.
		run, next := a.leafRun(vpn, v.End())
		if run == nil {
			vpn = next
			continue
		}
		for ; vpn < next; vpn++ {
			pfn, state := a.lookup(vpn)
			switch state {
			case ptPresent:
				a.unmapPage(vpn)
				if v.Kind == KindAnon {
					a.os.releaseAnonPage(pfn)
				} else {
					a.os.fileUnmapped(pfn)
				}
			case ptSwapped:
				a.clearSwapEntry(vpn)
				a.os.swap.free(vpn)
			}
		}
	}
	a.order = slices.DeleteFunc(a.order, func(o *VMA) bool { return o == v })
	a.mapGen++
	return nil
}

// VMAByID returns one area.
func (a *AddrSpace) VMAByID(id VMAID) (*VMA, bool) {
	for _, v := range a.order {
		if v.ID == id {
			return v, true
		}
	}
	return nil, false
}

// FindVMA locates the area containing vpn.
func (a *AddrSpace) FindVMA(vpn VPN) (*VMA, bool) {
	for _, v := range a.order {
		if v.Contains(vpn) {
			return v, true
		}
	}
	return nil, false
}

// ptState classifies a leaf entry.
type ptState int

const (
	ptAbsent ptState = iota
	ptPresent
	ptSwapped
)

func ptIndex(vpn VPN, level int) int {
	return int(vpn>>(uint(level)*ptFanoutBits)) & ptFanoutMask
}

// find returns the index of the level-level table covering vpn and
// true, or the index where that table would be inserted and false.
func (a *AddrSpace) find(vpn VPN, level int) (int, bool) {
	base := ptBase(vpn, level)
	key := ptOrd(base, level)
	lo, hi := 0, len(a.tables)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t := &a.tables[m]; ptOrd(t.base, int(t.level)) < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(a.tables) && a.tables[lo].base == base && int(a.tables[lo].level) == level
}

// walk returns the index of the leaf table covering vpn, optionally
// allocating the missing tables on its path. Returns noLeaf if absent
// and alloc is false.
func (a *AddrSpace) walk(vpn VPN, alloc bool) int {
	if a.leaf != noLeaf && a.leafKey == vpn>>ptFanoutBits {
		return a.leaf
	}
	return a.walkMiss(vpn, alloc)
}

// walkMiss is walk after a leaf-cache miss: it searches the table list
// and, when it finds or builds the table, fills the cache.
func (a *AddrSpace) walkMiss(vpn VPN, alloc bool) int {
	i, ok := a.find(vpn, 0)
	if !ok {
		if !alloc {
			return noLeaf
		}
		i = a.grow(vpn)
	}
	a.leaf, a.leafKey = i, vpn>>ptFanoutBits
	return i
}

// grow allocates the tables missing on vpn's path, root first, and
// returns the leaf table's index. allocPTPage may reclaim, and reclaim
// may remap pages of this address space, which moves tables in the
// list, so every position is looked up again after an allocation.
func (a *AddrSpace) grow(vpn VPN) int {
	a.leaf = noLeaf
	var i int
	for level := ptLevels - 1; level >= 0; level-- {
		var ok bool
		if i, ok = a.find(vpn, level); ok {
			continue
		}
		pfn := a.os.allocPTPage()
		a.ptPages++
		i, _ = a.find(vpn, level)
		if level < ptLevels-1 {
			p, _ := a.find(vpn, level+1)
			a.tables[p].live++
		}
		t := ptTable{base: ptBase(vpn, level), pfn: uint32(pfn), level: uint8(level)}
		if level == 0 {
			t.ents = a.leafBlock()
		}
		a.tables = slices.Insert(a.tables, i, t)
	}
	return i
}

// leafBlock returns an all-absent entry block for a new leaf table: a
// freed table's if one is spare, else a fresh one of exactly ptFanout
// entries.
func (a *AddrSpace) leafBlock() []uint32 {
	if n := len(a.spare); n > 0 {
		b := a.spare[n-1]
		a.spare[n-1] = nil
		a.spare = a.spare[:n-1]
		return b
	}
	b := make([]uint32, ptFanout)
	for i := range b {
		b[i] = ptAbsent32
	}
	return b
}

// lookup reads the leaf entry for vpn.
func (a *AddrSpace) lookup(vpn VPN) (PFN, ptState) {
	i := a.walk(vpn, false)
	if i == noLeaf {
		return NilPFN, ptAbsent
	}
	switch e := a.tables[i].ents[vpn&ptFanoutMask]; e {
	case ptAbsent32:
		return NilPFN, ptAbsent
	case ptSwapped32:
		return NilPFN, ptSwapped
	default:
		return PFN(e), ptPresent
	}
}

// leafRun returns the narrowed leaf entries of the level-0 table
// covering vpn, from vpn up to the table's end or end, whichever is
// first, together with the VPN after the run. The entries are nil when
// no table covers vpn. Sweeps over a VPN range use it to walk once per
// table instead of once per page.
func (a *AddrSpace) leafRun(vpn, end VPN) ([]uint32, VPN) {
	next := min((vpn|ptFanoutMask)+1, end)
	i := a.walk(vpn, false)
	if i == noLeaf {
		return nil, next
	}
	j := int(vpn & ptFanoutMask)
	return a.tables[i].ents[j : j+int(next-vpn)], next
}

// leafPresent reports whether a narrowed leaf entry maps a frame.
func leafPresent(e uint32) bool { return e != ptAbsent32 && e != ptSwapped32 }

// mapPage installs vpn → pfn.
func (a *AddrSpace) mapPage(vpn VPN, pfn PFN) {
	i := a.walk(vpn, true) // may grow a.tables
	t := &a.tables[i]
	e := &t.ents[vpn&ptFanoutMask]
	if leafPresent(*e) {
		panic(fmt.Sprintf("mm: remapping vpn %d over live entry", vpn))
	}
	if *e == ptAbsent32 {
		t.live++
	}
	*e = narrow(uint64(pfn))
	a.mapGen++
}

// unmapPage clears the mapping of vpn. Page-table pages whose last entry
// disappears are freed bottom-up.
func (a *AddrSpace) unmapPage(vpn VPN) {
	a.setLeaf(vpn, ptAbsent32, true)
}

// markSwapped replaces a present entry with the swap marker.
func (a *AddrSpace) markSwapped(vpn VPN) {
	a.setLeaf(vpn, ptSwapped32, false)
}

// clearSwapEntry removes a swap marker.
func (a *AddrSpace) clearSwapEntry(vpn VPN) {
	a.setLeaf(vpn, ptAbsent32, true)
}

// setLeaf writes a leaf entry; when clearing (entry == ptAbsent32 and
// reclaim), empty table pages are released bottom-up.
func (a *AddrSpace) setLeaf(vpn VPN, entry uint32, reclaim bool) {
	i := a.walk(vpn, false)
	if i == noLeaf {
		panic(fmt.Sprintf("mm: setLeaf walk hit hole at vpn %d", vpn))
	}
	t := &a.tables[i]
	e := &t.ents[vpn&ptFanoutMask]
	if *e == ptAbsent32 && entry != ptAbsent32 {
		t.live++
	}
	if *e != ptAbsent32 && entry == ptAbsent32 {
		t.live--
	}
	*e = entry
	a.mapGen++
	if !reclaim || entry != ptAbsent32 || t.live > 0 {
		return
	}
	// Free empty tables bottom-up, starting with this leaf table, which
	// the cache may hold. An emptied parent has no other child, so it
	// directly precedes the table freed before it.
	a.leaf = noLeaf
	a.spare = append(a.spare, t.ents)
	lo := i
	for level := 0; ; level++ {
		a.os.freePTPage(PFN(a.tables[lo].pfn))
		a.ptPages--
		if level == ptLevels-1 {
			break // root freed
		}
		p, _ := a.find(vpn, level+1)
		if a.tables[p].live--; a.tables[p].live > 0 {
			break
		}
		lo = p
	}
	a.tables = slices.Delete(a.tables, lo, i+1)
}

// CheckInvariants verifies the page table (pre-order, every table
// aligned and under its parent, live counts exact, one guest
// page-table frame per table), the leaf cache, VMA ordering and
// non-overlap, that every resident count matches the page table, and
// that every present leaf is a frame of the store whose reverse map
// names its VPN.
func (a *AddrSpace) CheckInvariants() error {
	if uint64(len(a.tables)) != a.ptPages {
		return fmt.Errorf("mm: %d page-table pages counted, %d tables", a.ptPages, len(a.tables))
	}
	st := a.os.store
	for j := range a.tables {
		t := &a.tables[j]
		level := int(t.level)
		switch {
		case level >= ptLevels || t.base != ptBase(t.base, level) || (level == 0) != (t.ents != nil):
			return fmt.Errorf("mm: malformed level-%d page table at VPN %d", level, t.base)
		case j > 0 && ptOrd(a.tables[j-1].base, int(a.tables[j-1].level)) >= ptOrd(t.base, level):
			return fmt.Errorf("mm: level-%d page table at VPN %d out of pre-order", level, t.base)
		case uint64(t.pfn) >= st.Len() || st.Kind(PFN(t.pfn)) != KindPageTable:
			return fmt.Errorf("mm: level-%d page table at VPN %d held in frame %d, not a page-table frame", level, t.base, t.pfn)
		}
	}
	// The list is sorted, so find can look up each table's parent.
	kids := make([]int, len(a.tables))
	for _, t := range a.tables {
		if level := int(t.level); level < ptLevels-1 {
			p, ok := a.find(t.base, level+1)
			if !ok {
				return fmt.Errorf("mm: level-%d page table at VPN %d has no parent", level, t.base)
			}
			kids[p]++
		}
	}
	for j := range a.tables {
		t := &a.tables[j]
		n := kids[j]
		if t.level == 0 {
			n = 0
			for _, e := range t.ents {
				if e != ptAbsent32 {
					n++
				}
			}
		}
		if n != int(t.live) {
			return fmt.Errorf("mm: level-%d page table at VPN %d counts %d live entries, holds %d", t.level, t.base, t.live, n)
		}
	}
	if a.leaf != noLeaf {
		if i, ok := a.find(a.leafKey<<ptFanoutBits, 0); !ok || i != a.leaf {
			return fmt.Errorf("mm: leaf cache for VPN %d holds a table the page table does not", a.leafKey<<ptFanoutBits)
		}
	}
	sorted := slices.Clone(a.order)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].End() > sorted[i].Start {
			return fmt.Errorf("mm: VMAs %d and %d overlap", sorted[i-1].ID, sorted[i].ID)
		}
	}
	for _, v := range a.order {
		var resident uint64
		for vpn := v.Start; vpn < v.End(); {
			run, next := a.leafRun(vpn, v.End())
			for k, e := range run {
				if !leafPresent(e) {
					continue
				}
				resident++
				if pfn := PFN(e); uint64(pfn) >= st.Len() {
					return fmt.Errorf("mm: VPN %d maps frame %d outside the store's %d", vpn+VPN(k), pfn, st.Len())
				} else if back := st.VPN(pfn); back != vpn+VPN(k) {
					return fmt.Errorf("mm: VPN %d maps frame %d, whose reverse map names VPN %d", vpn+VPN(k), pfn, back)
				}
			}
			vpn = next
		}
		if resident != v.Resident {
			return fmt.Errorf("mm: VMA %d resident %d != page table %d", v.ID, v.Resident, resident)
		}
	}
	return nil
}
