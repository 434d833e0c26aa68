// Package buddy implements the binary buddy page allocator the guest OS
// uses per NUMA node (Linux's zoned buddy allocator, Section 3.1 of the
// paper). It is generic over uint64 frame indices so it can be tested in
// isolation and reused by any node type.
//
// The guest only asks for single frames; free frames coalesce into
// blocks of up to 2^MaxOrder frames, and an allocation splits the
// lowest-addressed block of the smallest free order down to one frame.
// Address order keeps behaviour deterministic across runs (a
// requirement for reproducible experiments) and mirrors Linux's
// preference for low physical addresses.
//
// A node's frame span may be only partially populated: in virtualized
// systems the balloon driver adds (populates) and removes (depopulates)
// frames at runtime. Unpopulated frames are simply absent from the free
// lists.
package buddy

import (
	"errors"
	"fmt"
	"math/bits"
)

// MaxOrder is the largest free-block order (2^10 pages = 4 MiB blocks at
// 4 KiB pages, matching Linux's MAX_ORDER-1 = 10).
const MaxOrder = 10

// ErrNoMemory is returned when no free frame exists.
var ErrNoMemory = errors.New("buddy: out of memory")

// orderHeap is a min-heap of block bases for one order, stored as
// 32-bit offsets into the allocator's span (a span holds at most
// maxSpan frames). Offsets order like the bases they stand for.
// Removal of arbitrary elements (needed when a block's buddy is consumed
// by coalescing) is done lazily: stale entries are skipped on pop by
// checking the allocator's free-block array. push and pop
// sift exactly like container/heap's Push and Pop, without boxing each
// offset in an interface.
type orderHeap []uint32

func (h *orderHeap) push(x uint32) {
	*h = append(*h, x)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if s[j] >= s[i] {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *orderHeap) pop() uint32 {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2] < s[j] {
			j = j2 // right child
		}
		if s[j] >= s[i] {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}

// Allocator is a buddy allocator over the frame span [base, base+size).
type Allocator struct {
	base, size uint64
	// free is indexed by frame offset into the span: order+1 at the base
	// of a free block, 0 everywhere else. A block is free iff its base
	// holds its order here; heaps may contain stale entries.
	free      []uint8
	heaps     [MaxOrder + 1]orderHeap
	freePages uint64
}

// maxSpan bounds an allocator's span: heap entries are 32-bit offsets.
const maxSpan = 1 << 32

// New creates an allocator over [base, base+size) with no populated
// frames. Call AddRange to populate. A span of more than maxSpan frames
// panics.
func New(base, size uint64) *Allocator {
	if size > maxSpan {
		panic(fmt.Sprintf("buddy: span of %d frames exceeds maxSpan %d", size, uint64(maxSpan)))
	}
	return &Allocator{base: base, size: size, free: make([]uint8, size)}
}

// Base returns the first frame of the span.
func (a *Allocator) Base() uint64 { return a.base }

// Size returns the span length in frames.
func (a *Allocator) Size() uint64 { return a.size }

// FreePages reports the number of free frames.
func (a *Allocator) FreePages() uint64 { return a.freePages }

// IsFree reports whether pfn lies inside one of the allocator's free
// blocks.
func (a *Allocator) IsFree(pfn uint64) bool {
	if !a.contains(pfn, 0) {
		return false
	}
	rel := pfn - a.base
	for o := 0; o <= MaxOrder; o++ {
		if a.free[rel&^(uint64(1)<<o-1)] == uint8(o+1) {
			return true
		}
	}
	return false
}

func (a *Allocator) contains(pfn uint64, order int) bool {
	n := uint64(1) << order
	return pfn >= a.base && pfn-a.base+n <= a.size
}

// pushFree records a free block and attempts upward coalescing, exactly
// like __free_one_page: while the buddy block of the same order is also
// free, merge and move up an order.
func (a *Allocator) pushFree(pfn uint64, order int) {
	for order < MaxOrder {
		rel := pfn - a.base
		buddyRel := rel ^ (uint64(1) << order)
		buddyPfn := a.base + buddyRel
		if !a.contains(buddyPfn, order) || a.free[buddyRel] != uint8(order+1) {
			break
		}
		// Merge: remove the buddy (lazily from its heap), take the lower
		// base as the merged block.
		a.free[buddyRel] = 0
		if buddyRel < rel {
			pfn = buddyPfn
		}
		order++
	}
	a.free[pfn-a.base] = uint8(order + 1)
	a.heaps[order].push(uint32(pfn - a.base))
}

// popFree removes and returns the lowest-addressed free block of exactly
// this order, or false if none exists.
func (a *Allocator) popFree(order int) (uint64, bool) {
	h := &a.heaps[order]
	for len(*h) > 0 {
		rel := h.pop()
		if a.free[rel] == uint8(order+1) {
			a.free[rel] = 0
			return a.base + uint64(rel), true
		}
		// Otherwise pfn was a stale entry; keep popping.
	}
	return 0, false
}

// Alloc allocates one frame: the lowest-addressed free block of the
// smallest free order is split down to order 0, the upper halves going
// back to the free lists, and its base frame returned.
func (a *Allocator) Alloc() (uint64, error) {
	for o := 0; o <= MaxOrder; o++ {
		pfn, ok := a.popFree(o)
		if !ok {
			continue
		}
		for o > 0 {
			o--
			half := pfn + (uint64(1) << o)
			a.free[half-a.base] = uint8(o + 1)
			a.heaps[o].push(uint32(half - a.base))
		}
		a.freePages--
		return pfn, nil
	}
	// The bare sentinel: running dry is expected (a node's free-stack
	// refill stops on it), so no caller wants a formatted error built
	// here.
	return 0, ErrNoMemory
}

// Free returns one frame, coalescing it with free buddies. Freeing a
// frame outside the span or inside a free block panics (double free).
func (a *Allocator) Free(pfn uint64) {
	if !a.contains(pfn, 0) {
		panic(fmt.Sprintf("buddy: free of frame %d outside span [%d,%d)", pfn, a.base, a.base+a.size))
	}
	if a.free[pfn-a.base] != 0 {
		panic(fmt.Sprintf("buddy: double free of block %d", pfn))
	}
	a.freePages++
	a.pushFree(pfn, 0)
}

// AddRange populates n frames starting at pfn, making them available for
// allocation. Used at boot and when the balloon driver inflates the
// guest's reservation. The run goes in as its maximal aligned blocks,
// each coalescing with free buddies like a freed frame, so the free
// blocks (and so every later allocation) are those n single-frame frees
// would leave, at one heap entry per block instead of one per frame.
// A frame outside the span or already a free block's base panics, as
// in Free.
func (a *Allocator) AddRange(pfn, n uint64) {
	if n == 0 {
		return
	}
	if !a.contains(pfn, 0) || n > a.size-(pfn-a.base) {
		panic(fmt.Sprintf("buddy: range [%d,+%d) outside span [%d,%d)", pfn, n, a.base, a.base+a.size))
	}
	for rel := pfn - a.base; rel < pfn-a.base+n; rel++ {
		if a.free[rel] != 0 {
			panic(fmt.Sprintf("buddy: double free of block %d", a.base+rel))
		}
	}
	a.freePages += n
	for n > 0 {
		order := MaxOrder
		if rel := pfn - a.base; rel != 0 {
			order = min(order, bits.TrailingZeros64(rel))
		}
		for uint64(1)<<order > n {
			order--
		}
		a.pushFree(pfn, order)
		pfn += uint64(1) << order
		n -= uint64(1) << order
	}
}

// Reserve removes up to n free frames from the allocator and returns
// them (balloon deflation path: the guest surrenders frames to the VMM).
// It prefers small blocks to avoid fragmenting large ones.
func (a *Allocator) Reserve(n uint64) []uint64 {
	out := make([]uint64, 0, n)
	for uint64(len(out)) < n {
		got := false
		for o := 0; o <= MaxOrder && uint64(len(out)) < n; o++ {
			pfn, ok := a.popFree(o)
			if !ok {
				continue
			}
			got = true
			a.freePages -= uint64(1) << o
			for i := uint64(0); i < uint64(1)<<o; i++ {
				if uint64(len(out)) < n {
					out = append(out, pfn+i)
				} else {
					// Over-split: return the tail frames.
					a.freePages++
					a.pushFree(pfn+i, 0)
				}
			}
			break
		}
		if !got {
			break
		}
	}
	return out
}

// CheckInvariants validates the free-block bookkeeping: every free
// block lies inside the span and is aligned to its order, no free block
// has a free buddy of the same order (coalescing is maximal), no two
// free blocks overlap, and the block sizes sum to freePages.
func (a *Allocator) CheckInvariants() error {
	var total uint64
	covered := make([]uint64, (a.size+63)/64)
	for rel, v := range a.free {
		if v == 0 {
			continue
		}
		pfn, order := a.base+uint64(rel), int(v)-1
		if order > MaxOrder || !a.contains(pfn, order) {
			return fmt.Errorf("buddy: free block %d order %d outside span", pfn, order)
		}
		n := uint64(1) << order
		if uint64(rel)%n != 0 {
			return fmt.Errorf("buddy: free block %d misaligned for order %d", pfn, order)
		}
		total += n
		if order < MaxOrder {
			buddyPfn := a.base + (uint64(rel) ^ n)
			if a.contains(buddyPfn, order) && a.free[buddyPfn-a.base] == v {
				return fmt.Errorf("buddy: blocks %d and %d of order %d not coalesced", pfn, buddyPfn, order)
			}
		}
		for i := uint64(rel); i < uint64(rel)+n; i++ {
			w, bit := i/64, uint64(1)<<(i%64)
			if covered[w]&bit != 0 {
				return fmt.Errorf("buddy: frame %d covered by two free blocks", a.base+i)
			}
			covered[w] |= bit
		}
	}
	if total != a.freePages {
		return fmt.Errorf("buddy: free block total %d != freePages %d", total, a.freePages)
	}
	return nil
}
