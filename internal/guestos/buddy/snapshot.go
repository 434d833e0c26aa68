package buddy

import (
	"fmt"

	"heteroos/internal/snapshot"
)

// SnapshotState codes the allocator's mutable state: the span, the
// free-page count and the free blocks in ascending base order, merged
// from the free set's per-order regions. The span read must match the
// allocator's. The blocks read must be what a writer emits for an
// allocator that passes CheckInvariants: each inside the span and
// aligned to its order, in strictly ascending base order with no
// overlap, none with a free buddy of the same order, and their sizes
// summing to the free-page count. Checking each block against its
// predecessor covers overlap, and ascending order puts a block's lower
// buddy in the set first, so one pass checks every rule.
func (a *Allocator) SnapshotState(c *snapshot.Codec) error {
	base, size, freePages := a.base, a.size, a.freePages
	c.U64(&base)
	c.U64(&size)
	if c.Reading() && c.Err() == nil && (base != a.base || size != a.size) {
		return fmt.Errorf("buddy: snapshot span [%d,+%d) != allocator span [%d,+%d)", base, size, a.base, a.size)
	}
	c.U64(&freePages)
	type block struct {
		pfn   uint64
		order uint8
	}
	var blocks []block
	if !c.Reading() {
		for rel, o, ok := a.nextBlock(0); ok; rel, o, ok = a.nextBlock(rel + 1<<o) {
			blocks = append(blocks, block{a.base + rel, uint8(o)})
		}
	}
	snapshot.Slice(c, &blocks, func(b *block) {
		c.U64(&b.pfn)
		c.U8(&b.order)
	})
	if !c.Reading() || c.Err() != nil {
		return c.Err()
	}
	a.free.Clear()
	a.freePages = 0
	var end uint64 // span offset just past the previous block
	for _, b := range blocks {
		pfn, order := b.pfn, int(b.order)
		if order > MaxOrder {
			return fmt.Errorf("buddy: snapshot block %d has invalid order %d", pfn, order)
		}
		if !a.contains(pfn, order) {
			return fmt.Errorf("buddy: snapshot block %d order %d outside span [%d,+%d)", pfn, order, a.base, a.size)
		}
		rel := pfn - a.base
		switch {
		case rel < end:
			return fmt.Errorf("buddy: snapshot block %d below the previous block's end %d", pfn, a.base+end)
		case rel&(1<<order-1) != 0:
			return fmt.Errorf("buddy: snapshot block %d misaligned for order %d", pfn, order)
		case order < MaxOrder && a.isFree(order, rel>>order^1):
			return fmt.Errorf("buddy: snapshot block %d of order %d not coalesced with its buddy", pfn, order)
		}
		a.free.Add(a.start[order] + rel>>order)
		a.freePages += 1 << order
		end = rel + 1<<order
	}
	if a.freePages != freePages {
		return fmt.Errorf("buddy: snapshot blocks hold %d frames, header says %d free", a.freePages, freePages)
	}
	return nil
}
