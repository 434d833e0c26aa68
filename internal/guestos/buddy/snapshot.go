package buddy

import (
	"fmt"

	"heteroos/internal/snapshot"
)

// Snapshot serializes the allocator's mutable state: the free blocks
// in ascending base order. The per-order heaps are not serialized —
// they are a lazy view of the free array (stale entries are skipped on
// pop), and pop order depends only on block addresses, so rebuilding
// them from the sorted blocks reproduces allocation behaviour exactly.
func (a *Allocator) Snapshot(e *snapshot.Encoder) {
	e.U64(a.base)
	e.U64(a.size)
	e.U64(a.freePages)
	var blocks uint32
	for _, v := range a.free {
		if v != 0 {
			blocks++
		}
	}
	e.U32(blocks)
	for rel, v := range a.free {
		if v != 0 {
			e.U64(a.base + uint64(rel))
			e.U8(v - 1)
		}
	}
}

// Restore overwrites the allocator's mutable state from a snapshot.
// The span must match the one the snapshot was taken from, and every
// block must lie inside it. Heaps are rebuilt per order from ascending
// bases: a sorted slice is already a valid min-heap, and dropping the
// live allocator's stale entries changes no observable behaviour.
func (a *Allocator) Restore(d *snapshot.Decoder) error {
	base, size := d.U64(), d.U64()
	if base != a.base || size != a.size {
		return fmt.Errorf("buddy: snapshot span [%d,+%d) != allocator span [%d,+%d)", base, size, a.base, a.size)
	}
	a.freePages = d.U64()
	n := int(d.U32())
	clear(a.free)
	for o := range a.heaps {
		a.heaps[o] = a.heaps[o][:0]
	}
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
		a.free[pfn-a.base] = uint8(order + 1)
		a.heaps[order] = append(a.heaps[order], uint32(pfn-a.base))
	}
	return d.Err()
}
