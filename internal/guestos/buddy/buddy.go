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
// Free blocks are kept in one bitset.Set with a region per order, in
// ascending order, each indexed by block number. "Lowest-addressed
// block of the smallest free order" is then the set's first member: no
// heap, no lazy deletion, and one set header per allocator rather than
// one per order, which at small spans outweighed the set words.
//
// A node's frame span may be only partially populated: in virtualized
// systems the balloon driver adds (populates) and removes (depopulates)
// frames at runtime. Unpopulated frames are simply absent from the free
// set.
package buddy

import (
	"errors"
	"fmt"
	"math/bits"

	"heteroos/internal/bitset"
)

// MaxOrder is the largest free-block order (2^10 pages = 4 MiB blocks at
// 4 KiB pages, matching Linux's MAX_ORDER-1 = 10).
const MaxOrder = 10

// ErrNoMemory is returned when no free frame exists.
var ErrNoMemory = errors.New("buddy: out of memory")

// Allocator is a buddy allocator over the frame span [base, base+size).
type Allocator struct {
	base, size uint64
	freePages  uint64
	// free holds the free blocks, the order-o block at span offset rel
	// as member start[o] + rel>>o; it is the only free-block record.
	// Order o's region spans size>>o members, padded to whole words;
	// start[MaxOrder+1] is the set's span.
	free  bitset.Set
	start [MaxOrder + 2]uint64
}

// New creates an allocator over [base, base+size) with no populated
// frames. Call AddRange to populate.
func New(base, size uint64) *Allocator {
	a := &Allocator{base: base, size: size}
	for o := 0; o <= MaxOrder; o++ {
		a.start[o+1] = a.start[o] + (size>>o+63)&^63
	}
	a.free = bitset.New(a.start[MaxOrder+1])
	return a
}

// isFree reports whether block b of order o is free.
func (a *Allocator) isFree(o int, b uint64) bool {
	return b < a.size>>o && a.free.Has(a.start[o]+b)
}

// nextFree returns the lowest free block of order o at or above block
// b.
func (a *Allocator) nextFree(o int, b uint64) (uint64, bool) {
	p, ok := a.free.Next(a.start[o] + b)
	if !ok || p >= a.start[o]+a.size>>o {
		return 0, false
	}
	return p - a.start[o], true
}

// FreePages reports the number of free frames.
func (a *Allocator) FreePages() uint64 { return a.freePages }

// IsFree reports whether pfn lies inside one of the allocator's free
// blocks.
func (a *Allocator) IsFree(pfn uint64) bool {
	return a.contains(pfn, 0) && a.freeAt(pfn-a.base)
}

// freeAt reports whether span offset rel lies inside a free block.
func (a *Allocator) freeAt(rel uint64) bool {
	for o := 0; o <= MaxOrder; o++ {
		if a.isFree(o, rel>>o) {
			return true
		}
	}
	return false
}

// nextBlock returns the span offset and order of the free block holding
// rel, or else of the lowest free block above it.
func (a *Allocator) nextBlock(rel uint64) (uint64, int, bool) {
	var next uint64
	order := -1
	for o := 0; o <= MaxOrder; o++ {
		if a.isFree(o, rel>>o) {
			return rel >> o << o, o, true
		}
		if b, ok := a.nextFree(o, rel>>o+1); ok && (order < 0 || b<<o < next) {
			next, order = b<<o, o
		}
	}
	return next, order, order >= 0
}

func (a *Allocator) contains(pfn uint64, order int) bool {
	rel := pfn - a.base
	return pfn >= a.base && rel < a.size && uint64(1)<<order <= a.size-rel
}

// pushFree records the free block of the given order at span offset
// rel and coalesces it upward, exactly like __free_one_page: while the
// buddy block of the same order is also free, merge and move up an
// order.
func (a *Allocator) pushFree(rel uint64, order int) {
	b := rel >> order
	for order < MaxOrder && a.isFree(order, b^1) {
		a.free.Remove(a.start[order] + (b ^ 1))
		b >>= 1
		order++
	}
	a.free.Add(a.start[order] + b)
}

// popFree removes the lowest-addressed free block of exactly this order
// and returns its span offset, or false if none exists.
func (a *Allocator) popFree(order int) (uint64, bool) {
	b, ok := a.nextFree(order, 0)
	if ok {
		a.free.Remove(a.start[order] + b)
	}
	return b << order, ok
}

// Alloc allocates one frame: the lowest-addressed free block of the
// smallest free order is split down to order 0, the upper halves going
// back to the free set, and its base frame returned. That block is the
// free set's first member, since the regions ascend by order.
func (a *Allocator) Alloc() (uint64, error) {
	p, ok := a.free.Next(0)
	if !ok {
		// The bare sentinel: running dry is expected (a node's
		// free-stack refill stops on it), so no caller wants a
		// formatted error built here.
		return 0, ErrNoMemory
	}
	o := 0
	for p >= a.start[o+1] {
		o++
	}
	a.free.Remove(p)
	rel := (p - a.start[o]) << o
	for o > 0 {
		o--
		a.free.Add(a.start[o] + (rel>>o | 1))
	}
	a.freePages--
	return a.base + rel, nil
}

// Free returns one frame, coalescing it with free buddies. Freeing a
// frame outside the span or inside a free block panics (double free).
func (a *Allocator) Free(pfn uint64) {
	if !a.contains(pfn, 0) {
		panic(fmt.Sprintf("buddy: free of frame %d outside span [%d,%d)", pfn, a.base, a.base+a.size))
	}
	if a.freeAt(pfn - a.base) {
		panic(fmt.Sprintf("buddy: double free of block %d", pfn))
	}
	a.freePages++
	a.pushFree(pfn-a.base, 0)
}

// AddRange populates n frames starting at pfn, making them available for
// allocation. Used at boot and when the balloon driver inflates the
// guest's reservation. The run goes in as its maximal aligned blocks,
// each coalescing with free buddies like a freed frame, so the free
// blocks (and so every later allocation) are those n single-frame frees
// would leave. A frame outside the span or already free panics, as in
// Free.
func (a *Allocator) AddRange(pfn, n uint64) {
	if n == 0 {
		return
	}
	if !a.contains(pfn, 0) || n > a.size-(pfn-a.base) {
		panic(fmt.Sprintf("buddy: range [%d,+%d) outside span [%d,%d)", pfn, n, a.base, a.base+a.size))
	}
	rel := pfn - a.base
	if b, _, ok := a.nextBlock(rel); ok && b < rel+n {
		panic(fmt.Sprintf("buddy: double free of block %d", a.base+max(b, rel)))
	}
	a.freePages += n
	for end := rel + n; rel < end; {
		order := MaxOrder
		if rel != 0 {
			order = min(order, bits.TrailingZeros64(rel))
		}
		for uint64(1)<<order > end-rel {
			order--
		}
		a.pushFree(rel, order)
		rel += uint64(1) << order
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
			rel, ok := a.popFree(o)
			if !ok {
				continue
			}
			got = true
			a.freePages -= uint64(1) << o
			for i := uint64(0); i < uint64(1)<<o; i++ {
				if uint64(len(out)) < n {
					out = append(out, a.base+rel+i)
				} else {
					// Over-split: return the tail frames.
					a.freePages++
					a.pushFree(rel+i, 0)
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

// CheckInvariants validates the free-block bookkeeping: the free set
// is well formed and each order's region holds only blocks inside the
// span, no free block has a free buddy of the same order (coalescing
// is maximal), no free block lies inside a larger one, and the block
// sizes sum to freePages.
func (a *Allocator) CheckInvariants() error {
	if err := a.free.Check(a.start[MaxOrder+1]); err != nil {
		return fmt.Errorf("buddy: free set: %v", err)
	}
	var total uint64
	for o := 0; o <= MaxOrder; o++ {
		for p, ok := a.free.Next(a.start[o]); ok && p < a.start[o+1]; p, ok = a.free.Next(p + 1) {
			b := p - a.start[o]
			if b >= a.size>>o {
				return fmt.Errorf("buddy: order %d free set: member %d beyond span %d", o, b, a.size>>o)
			}
			pfn := a.base + b<<o
			total += uint64(1) << o
			if o < MaxOrder && a.isFree(o, b^1) {
				return fmt.Errorf("buddy: blocks %d and %d of order %d not coalesced", pfn, a.base+(b^1)<<o, o)
			}
			for up := o + 1; up <= MaxOrder; up++ {
				if a.isFree(up, b<<o>>up) {
					return fmt.Errorf("buddy: frame %d covered by two free blocks", pfn)
				}
			}
		}
	}
	if total != a.freePages {
		return fmt.Errorf("buddy: free block total %d != freePages %d", total, a.freePages)
	}
	return nil
}
