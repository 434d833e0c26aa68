// Package guestos implements the heterogeneity-aware guest operating
// system memory manager that is the paper's first contribution
// (Section 3): NUMA-node-per-memory-type abstraction, a buddy page
// allocator with multi-dimensional per-CPU free lists, slab caches, an
// I/O page cache, virtual memory areas backed by a four-level page
// table, the split active/inactive LRU with the HeteroOS-LRU extensions,
// and the on-demand balloon front-end.
//
// The package operates on simulated frames: a page's backing machine
// frame (MFN) determines its memory tier, and the clock only advances
// when the surrounding simulation charges time for the operations
// performed here. All placement logic, however, is real: the same
// decisions a kernel patch would make are made here over the same state.
package guestos

import (
	"fmt"

	"heteroos/internal/guestos/pagecache"
)

// PFN is a guest physical frame number. Each VM's guest-physical address
// space is laid out with the FastMem node's frames first, then the
// SlowMem node's frames; in transparent (VMM-exclusive) mode there is a
// single node spanning all frames.
type PFN uint64

// NilPFN marks "no frame".
const NilPFN = PFN(^uint64(0))

// VPN is a virtual page number within the guest application's address
// space.
type VPN uint64

// NilVPN marks "no virtual page".
const NilVPN = VPN(^uint64(0))

// PageKind classifies what a page is used for. The categories follow the
// paper's Figure 4 census: heap/anonymous, I/O page cache (including
// file-mapped), network kernel buffers, other slab, page-table pages,
// and DMA.
type PageKind int

const (
	// KindFree marks a page not currently allocated to any subsystem.
	KindFree PageKind = iota
	// KindAnon is application heap / anonymous memory.
	KindAnon
	// KindPageCache is the I/O page and buffer cache, including
	// file-mapped pages.
	KindPageCache
	// KindNetBuf is network kernel buffer (skbuff) slab pages.
	KindNetBuf
	// KindSlab is all other kernel slab pages (filesystem metadata,
	// dentries, inodes, bios).
	KindSlab
	// KindPageTable is page-table pages. They are linearly mapped and
	// cannot be migrated (exception-listed in coordinated mode).
	KindPageTable
	// KindDMA is device-pinned memory; unmovable.
	KindDMA
	// NumKinds is the number of page kinds, including KindFree.
	NumKinds
)

// String names the kind using the paper's Figure 4 labels.
func (k PageKind) String() string {
	switch k {
	case KindFree:
		return "free"
	case KindAnon:
		return "heap/anon"
	case KindPageCache:
		return "I/O cache/mapped"
	case KindNetBuf:
		return "NW-buff"
	case KindSlab:
		return "slab"
	case KindPageTable:
		return "pagetable"
	case KindDMA:
		return "DMA"
	default:
		return fmt.Sprintf("PageKind(%d)", int(k))
	}
}

// Movable reports whether pages of this kind may be migrated between
// tiers. Page-table and DMA pages are linearly/physically addressed and
// pinned (Section 4.1's exception list).
func (k PageKind) Movable() bool {
	return k == KindAnon || k == KindPageCache || k == KindNetBuf || k == KindSlab
}

// AllocatableKinds are the kinds subsystems request pages for, in the
// order Figure 4 reports them.
var AllocatableKinds = []PageKind{KindAnon, KindPageCache, KindNetBuf, KindSlab, KindPageTable, KindDMA}

// PageFlags is a bitset of per-page state.
type PageFlags uint16

const (
	// FlagAccessed is the simulated PTE access bit; set on every touch,
	// cleared by hotness scans.
	FlagAccessed PageFlags = 1 << iota
	// FlagDirty marks unwritten page-cache contents.
	FlagDirty
	// FlagActive places the page on the active (vs inactive) LRU list.
	FlagActive
	// FlagOnLRU marks LRU membership.
	FlagOnLRU
	// FlagPinned marks pages that must not move or be reclaimed.
	FlagPinned
	// FlagBalloon marks pages absorbed by the balloon driver (returned
	// to the VMM; not usable by the guest).
	FlagBalloon
	// FlagFastPref records that the allocation originally wanted FastMem
	// but was spilled; the coordinated migrator prioritises such pages.
	FlagFastPref
	// FlagScanAccessed is the hotness tracker's private referenced bit.
	// Real access-bit scanning steals the bit reclaim depends on; Linux's
	// idle-page tracking introduced a separate bit for exactly this
	// reason, and the simulator follows that design.
	FlagScanAccessed
	// FlagScanWritten is the tracker's private dirtied bit, used by the
	// write-aware migration extension (Section 4.3): NVM-class SlowMem
	// punishes stores far more than loads, so write-heavy pages deserve
	// FastMem ahead of read-heavy ones.
	FlagScanWritten
)

// FileID identifies a simulated file (or network socket buffer pool) for
// page-cache indexing. It aliases the page cache's identifier type so
// the two layers share one namespace.
type FileID = pagecache.FileID

// NilFile marks "no file".
const NilFile = FileID(0)
