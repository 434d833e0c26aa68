package guestos

import (
	"fmt"

	"heteroos/internal/guestos/buddy"
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
	// free is the node's free-frame stack in front of the buddy
	// allocator, Linux's per-CPU page list redesigned per memory type
	// (Section 3.1): the node is the memory type, so one stack per node
	// is the paper's per-type list. Frames pop from the top; frame
	// numbers fit 32 bits (below memsim.MaxFrames).
	free []uint32

	populated uint64

	// Watermarks for HeteroOS-LRU's per-memory-type replacement
	// thresholds, in pages. Reclaim triggers below Low and stops at High.
	LowWatermark, HighWatermark uint64
}

// Free-stack batching, as Linux's per-CPU lists: an empty stack refills
// stackBatch frames from the buddy allocator, and a free that takes the
// stack past stackHigh drains its top stackBatch frames back.
const (
	stackBatch = 16
	stackHigh  = 64
)

func newNode(tier memsim.Tier, base PFN, maxPages uint64) *Node {
	return &Node{
		Tier:     tier,
		Base:     base,
		MaxPages: maxPages,
		Buddy:    buddy.New(uint64(base), maxPages),
		// The stack never holds more than stackHigh+1 frames.
		free: make([]uint32, 0, stackHigh+1),
	}
}

// allocFrame pops a frame off the free stack, refilling the stack from
// the buddy allocator when it is empty. ok is false when the buddy
// allocator is dry too.
func (n *Node) allocFrame() (PFN, bool) {
	if len(n.free) == 0 {
		// The refilled batch is appended in allocation order, so the
		// last frame the buddy handed out is the first popped.
		for i := 0; i < stackBatch; i++ {
			p, err := n.Buddy.Alloc()
			if err != nil {
				break
			}
			n.free = append(n.free, uint32(p))
		}
		if len(n.free) == 0 {
			return NilPFN, false
		}
	}
	top := len(n.free) - 1
	pfn := PFN(n.free[top])
	n.free = n.free[:top]
	return pfn, true
}

// freeFrame pushes a frame onto the free stack, draining the top batch
// to the buddy allocator (bottom of the batch first) once the stack
// exceeds its high watermark.
func (n *Node) freeFrame(pfn PFN) {
	n.free = append(n.free, uint32(pfn))
	if len(n.free) > stackHigh {
		n.drainStack(len(n.free) - stackBatch)
	}
}

// drainStack returns the stack's frames from index from upward to the
// buddy allocator, bottom to top.
func (n *Node) drainStack(from int) {
	for _, p := range n.free[from:] {
		n.Buddy.Free(uint64(p))
	}
	n.free = n.free[:from]
}

// Contains reports whether pfn belongs to this node's span.
func (n *Node) Contains(pfn PFN) bool {
	return pfn >= n.Base && uint64(pfn-n.Base) < n.MaxPages
}

// Populated reports how many frames of the span are currently backed by
// machine memory.
func (n *Node) Populated() uint64 { return n.populated }

// FreePages reports free frames (buddy plus free stack).
func (n *Node) FreePages() uint64 {
	return n.Buddy.FreePages() + uint64(len(n.free))
}

// UsedPages reports populated frames currently allocated to a subsystem.
func (n *Node) UsedPages() uint64 { return n.populated - n.FreePages() }

// addPopulated inserts count frames starting at pfn into the allocator.
func (n *Node) addPopulated(pfn PFN, count uint64) {
	n.Buddy.AddRange(uint64(pfn), count)
	n.populated += count
}

// reserveFree pulls up to count free frames out of the node (for balloon
// deflation), draining the free stack first if needed.
func (n *Node) reserveFree(count uint64) []PFN {
	got := n.Buddy.Reserve(count)
	if uint64(len(got)) < count {
		n.drainStack(0)
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
