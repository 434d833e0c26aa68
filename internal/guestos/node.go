package guestos

import (
	"fmt"

	"heteroos/internal/guestos/buddy"
	"heteroos/internal/guestos/percpu"
	"heteroos/internal/memsim"
)

// Node is one guest NUMA node: in heterogeneity-aware mode there is one
// node per memory type (Section 3.1: "we expose the memory types as NUMA
// nodes"); in transparent mode a single node spans all guest frames.
//
// FastMem nodes are created with a single zone in which both user and
// kernel pages are allocated ("FastMem nodes are partitioned with just
// one zone ... to conserve pages"); the simulator models all nodes with
// one zone and the distinction survives in the per-kind accounting.
type Node struct {
	// Tier is the memory type this node exposes. For a transparent
	// single-node guest this is the *nominal* tier; individual pages may
	// be backed by either tier.
	Tier memsim.Tier
	// Span is [Base, Base+MaxPages) in guest PFN space.
	Base     PFN
	MaxPages uint64

	Buddy *buddy.Allocator
	PCP   *percpu.Lists

	populated uint64

	// Watermarks for HeteroOS-LRU's per-memory-type replacement
	// thresholds, in pages. Reclaim triggers below Low and stops at High.
	LowWatermark, HighWatermark uint64
}

func newNode(tier memsim.Tier, base PFN, maxPages uint64, cpus int) *Node {
	n := &Node{
		Tier:     tier,
		Base:     base,
		MaxPages: maxPages,
		Buddy:    buddy.New(uint64(base), maxPages),
	}
	// Per-CPU lists have a single dimension here because the node itself
	// is the memory-type dimension; the OS exposes the multi-dimensional
	// view across nodes.
	n.PCP = percpu.New(cpus, 1, 16, 64,
		func(_ int, cnt int) []uint64 {
			out := make([]uint64, 0, cnt)
			for i := 0; i < cnt; i++ {
				p, err := n.Buddy.AllocPage()
				if err != nil {
					break
				}
				out = append(out, p)
			}
			return out
		},
		func(_ int, pfns []uint64) {
			for _, p := range pfns {
				n.Buddy.FreePage(p)
			}
		})
	return n
}

// Contains reports whether pfn belongs to this node's span.
func (n *Node) Contains(pfn PFN) bool {
	return pfn >= n.Base && uint64(pfn-n.Base) < n.MaxPages
}

// Populated reports how many frames of the span are currently backed by
// machine memory.
func (n *Node) Populated() uint64 { return n.populated }

// FreePages reports free frames (buddy plus per-CPU caches).
func (n *Node) FreePages() uint64 {
	return n.Buddy.FreePages() + uint64(n.PCP.Cached(0))
}

// UsedPages reports populated frames currently allocated to a subsystem.
func (n *Node) UsedPages() uint64 { return n.populated - n.FreePages() }

// addPopulated inserts count frames starting at pfn into the allocator.
func (n *Node) addPopulated(pfn PFN, count uint64) {
	n.Buddy.AddRange(uint64(pfn), count)
	n.populated += count
}

// reserveFree pulls up to count free frames out of the node (for balloon
// deflation), flushing per-CPU caches first if needed.
func (n *Node) reserveFree(count uint64) []PFN {
	got := n.Buddy.Reserve(count)
	if uint64(len(got)) < count {
		n.PCP.Flush()
		got = append(got, n.Buddy.Reserve(count-uint64(len(got)))...)
	}
	out := make([]PFN, len(got))
	for i, g := range got {
		out[i] = PFN(g)
	}
	n.populated -= uint64(len(out))
	return out
}

// BelowLow reports whether free pages have fallen under the low
// watermark (HeteroOS-LRU trigger).
func (n *Node) BelowLow() bool {
	return n.FreePages() < n.LowWatermark
}

// ReclaimTarget reports how many pages reclaim should free to reach the
// high watermark (zero when already above it).
func (n *Node) ReclaimTarget() uint64 {
	free := n.FreePages()
	if free >= n.HighWatermark {
		return 0
	}
	return n.HighWatermark - free
}

func (n *Node) String() string {
	return fmt.Sprintf("node(%v base=%d max=%d pop=%d free=%d)",
		n.Tier, n.Base, n.MaxPages, n.populated, n.FreePages())
}
