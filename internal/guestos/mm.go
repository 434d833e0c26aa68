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
)

// ptNode is one page-table page. Interior nodes hold children; level-0
// nodes hold leaf PFN entries. Each node consumes one guest frame of
// KindPageTable, so page-table page counts (Figure 4) are real.
type ptNode struct {
	pfn      PFN // the frame holding this table
	children []*ptNode
	leaves   []PFN
	live     int // live entries; node freed when it reaches 0
}

// AddrSpace is the application address space of a guest VM: the VMA set
// plus the page-table tree. The simulator models one address space per
// VM (the paper's workloads are one application per VM).
type AddrSpace struct {
	os      *OS
	order   []*VMA // creation order, so IDs ascend
	nextID  VMAID
	nextVPN VPN
	root    *ptNode

	ptPages uint64

	// leaf caches the level-0 table of the last walk that reached one,
	// covering VPNs with vpn>>ptFanoutBits == leafKey. Touches come in
	// ascending VPN order, so consecutive walks mostly land in the same
	// table. Cleared wherever a table is freed and when restore replaces
	// the tree; not serialized.
	leaf    *ptNode
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
	for vpn := v.Start; vpn < v.End(); vpn++ {
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

// walk returns the level-0 node covering vpn, optionally allocating
// interior nodes. Returns nil if absent and alloc is false.
func (a *AddrSpace) walk(vpn VPN, alloc bool) *ptNode {
	key := vpn >> ptFanoutBits
	if a.leaf != nil && a.leafKey == key {
		return a.leaf
	}
	n := a.descend(vpn, alloc)
	if n != nil {
		a.leaf, a.leafKey = n, key
	}
	return n
}

// descend is walk's uncached root-to-leaf descent.
func (a *AddrSpace) descend(vpn VPN, alloc bool) *ptNode {
	if a.root == nil {
		if !alloc {
			return nil
		}
		a.root = a.newPTNode(ptLevels - 1)
	}
	n := a.root
	for level := ptLevels - 1; level > 0; level-- {
		idx := ptIndex(vpn, level)
		child := n.children[idx]
		if child == nil {
			if !alloc {
				return nil
			}
			child = a.newPTNode(level - 1)
			n.children[idx] = child
			n.live++
		}
		n = child
	}
	return n
}

func (a *AddrSpace) newPTNode(level int) *ptNode {
	n := emptyPTNode(a.os.allocPTPage(), level)
	a.ptPages++
	return n
}

// emptyPTNode returns a table of the given level, held in frame pfn,
// with no entries.
func emptyPTNode(pfn PFN, level int) *ptNode {
	n := &ptNode{pfn: pfn}
	if level == 0 {
		n.leaves = make([]PFN, ptFanout)
		for i := range n.leaves {
			n.leaves[i] = ptEntryAbsent
		}
	} else {
		n.children = make([]*ptNode, ptFanout)
	}
	return n
}

// lookup reads the leaf entry for vpn.
func (a *AddrSpace) lookup(vpn VPN) (PFN, ptState) {
	n := a.walk(vpn, false)
	if n == nil {
		return NilPFN, ptAbsent
	}
	e := n.leaves[ptIndex(vpn, 0)]
	switch e {
	case ptEntryAbsent:
		return NilPFN, ptAbsent
	case ptEntrySwapped:
		return NilPFN, ptSwapped
	default:
		return e, ptPresent
	}
}

// leafRun returns the leaf entries of the level-0 table covering vpn,
// from vpn up to the table's end or end, whichever is first, together
// with the VPN after the run. The entries are nil when no table covers
// vpn. Sweeps over a VPN range use it to walk once per table instead of
// once per page.
func (a *AddrSpace) leafRun(vpn, end VPN) ([]PFN, VPN) {
	next := min((vpn|ptFanoutMask)+1, end)
	n := a.walk(vpn, false)
	if n == nil {
		return nil, next
	}
	i := ptIndex(vpn, 0)
	return n.leaves[i : i+int(next-vpn)], next
}

// leafPresent reports whether a leaf entry maps a frame.
func leafPresent(e PFN) bool { return e != ptEntryAbsent && e != ptEntrySwapped }

// mapPage installs vpn → pfn.
func (a *AddrSpace) mapPage(vpn VPN, pfn PFN) {
	n := a.walk(vpn, true)
	idx := ptIndex(vpn, 0)
	if n.leaves[idx] != ptEntryAbsent && n.leaves[idx] != ptEntrySwapped {
		panic(fmt.Sprintf("mm: remapping vpn %d over live entry", vpn))
	}
	if n.leaves[idx] == ptEntryAbsent {
		n.live++
	}
	n.leaves[idx] = pfn
	a.mapGen++
}

// unmapPage clears the mapping of vpn. Page-table pages whose last entry
// disappears are freed bottom-up.
func (a *AddrSpace) unmapPage(vpn VPN) {
	a.setLeaf(vpn, ptEntryAbsent, true)
}

// markSwapped replaces a present entry with the swap marker.
func (a *AddrSpace) markSwapped(vpn VPN) {
	a.setLeaf(vpn, ptEntrySwapped, false)
}

// clearSwapEntry removes a swap marker.
func (a *AddrSpace) clearSwapEntry(vpn VPN) {
	a.setLeaf(vpn, ptEntryAbsent, true)
}

// setLeaf writes a leaf entry; when clearing (entry == ptEntryAbsent and
// reclaim), empty table pages are released.
func (a *AddrSpace) setLeaf(vpn VPN, entry PFN, reclaim bool) {
	if a.root == nil {
		panic("mm: setLeaf on empty table")
	}
	// Record the descent path for bottom-up reclaim.
	var path [ptLevels]*ptNode
	var idxs [ptLevels]int
	n := a.root
	for level := ptLevels - 1; level > 0; level-- {
		path[level] = n
		idxs[level] = ptIndex(vpn, level)
		n = n.children[idxs[level]]
		if n == nil {
			panic(fmt.Sprintf("mm: setLeaf walk hit hole at vpn %d", vpn))
		}
	}
	idx := ptIndex(vpn, 0)
	was := n.leaves[idx]
	if was == ptEntryAbsent && entry != ptEntryAbsent {
		n.live++
	}
	if was != ptEntryAbsent && entry == ptEntryAbsent {
		n.live--
	}
	n.leaves[idx] = entry
	a.mapGen++
	if !reclaim || entry != ptEntryAbsent || n.live > 0 {
		return
	}
	// Free empty nodes bottom-up, starting with this leaf table, which
	// the cache may hold.
	a.leaf = nil
	child := n
	for level := 1; level < ptLevels; level++ {
		parent := path[level]
		parent.children[idxs[level]] = nil
		a.os.freePTPage(child.pfn)
		a.ptPages--
		parent.live--
		if parent.live > 0 {
			return
		}
		child = parent
	}
	// Root emptied.
	a.os.freePTPage(a.root.pfn)
	a.ptPages--
	a.root = nil
}

// CheckInvariants verifies VMA ordering and non-overlap, and that every
// resident count matches the page table.
func (a *AddrSpace) CheckInvariants() error {
	if a.leaf != nil {
		if fresh := a.descend(a.leafKey<<ptFanoutBits, false); fresh != a.leaf {
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
			var leaves []PFN
			leaves, vpn = a.leafRun(vpn, v.End())
			for _, e := range leaves {
				if leafPresent(e) {
					resident++
				}
			}
		}
		if resident != v.Resident {
			return fmt.Errorf("mm: VMA %d resident %d != page table %d", v.ID, v.Resident, resident)
		}
	}
	return nil
}
