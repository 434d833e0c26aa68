package buddy

import (
	"fmt"

	"heteroos/internal/snapshot"
)

// Snapshot serializes the allocator's mutable state: the free blocks
// in ascending base order, merged from the per-order sets.
func (a *Allocator) Snapshot(e *snapshot.Encoder) {
	e.U64(a.base)
	e.U64(a.size)
	e.U64(a.freePages)
	var blocks uint32
	for rel, o, ok := a.nextBlock(0); ok; rel, o, ok = a.nextBlock(rel + 1<<o) {
		blocks++
	}
	e.U32(blocks)
	for rel, o, ok := a.nextBlock(0); ok; rel, o, ok = a.nextBlock(rel + 1<<o) {
		e.U64(a.base + rel)
		e.U8(uint8(o))
	}
}

// Restore overwrites the allocator's mutable state from a snapshot.
// The span must match the one the snapshot was taken from. The blocks
// must be what Snapshot writes for an allocator that passes
// CheckInvariants: each inside the span and aligned to its order, in
// strictly ascending base order with no overlap, none with a free buddy
// of the same order, and their sizes summing to the free-page count.
// Checking each block against its predecessor covers overlap, and
// ascending order puts a block's lower buddy in its set first, so one
// pass checks every rule.
func (a *Allocator) Restore(d *snapshot.Decoder) error {
	base, size := d.U64(), d.U64()
	if base != a.base || size != a.size {
		return fmt.Errorf("buddy: snapshot span [%d,+%d) != allocator span [%d,+%d)", base, size, a.base, a.size)
	}
	freePages := d.U64()
	n := int(d.U32())
	for o := range a.sets {
		a.sets[o].Clear()
	}
	a.freePages = 0
	var end uint64 // span offset just past the previous block
	for i := 0; i < n; i++ {
		pfn, order := d.U64(), int(d.U8())
		if err := d.Err(); err != nil {
			return err
		}
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
		case order < MaxOrder && a.sets[order].Has(rel>>order^1):
			return fmt.Errorf("buddy: snapshot block %d of order %d not coalesced with its buddy", pfn, order)
		}
		a.sets[order].Add(rel >> order)
		a.freePages += 1 << order
		end = rel + 1<<order
	}
	if a.freePages != freePages {
		return fmt.Errorf("buddy: snapshot blocks hold %d frames, header says %d free", a.freePages, freePages)
	}
	return d.Err()
}
