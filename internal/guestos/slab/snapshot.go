package slab

import (
	"fmt"

	"heteroos/internal/snapshot"
)

// SnapshotState codes the cache's mutable state: every slab in
// ascending base order with its free-index stack in exact order, the
// partial stack in exact order (stale entries included — they are
// behavioural state: Alloc pops and skips them lazily), the empty-slab
// count, and the churn counters. Reading requires a cache of the same
// name and geometry and slabs in strictly ascending base order, rebuilds
// the free masks and ends with CheckInvariants.
func (c *Cache) SnapshotState(sc *snapshot.Codec) error {
	name := c.name
	sc.Str(&name)
	if sc.Reading() && sc.Err() == nil && name != c.name {
		return fmt.Errorf("slab: snapshot of cache %q applied to %q", name, c.name)
	}
	sc.U64(&c.allocs)
	sc.U64(&c.frees)
	sc.U64(&c.slabAllocs)
	sc.U64(&c.slabFrees)
	sc.Int(&c.empties)
	snapshot.Slice(sc, &c.slabs, func(s **slabState) {
		if *s == nil {
			*s = new(slabState)
		}
		sc.U64(&(*s).base)
		sc.Int(&(*s).capacity)
		sc.Int(&(*s).inUse)
		snapshot.Slice(sc, &(*s).free, func(f *int) {
			idx := uint32(*f)
			sc.U32(&idx)
			*f = int(idx)
		})
	})
	sc.U64s(&c.partial)
	if !sc.Reading() || sc.Err() != nil {
		return sc.Err()
	}
	for i, s := range c.slabs {
		if s.capacity != c.objsPerSlab {
			return fmt.Errorf("slab %s: snapshot slab %d capacity %d != geometry %d", c.name, s.base, s.capacity, c.objsPerSlab)
		}
		if i > 0 && c.slabs[i-1].base == s.base {
			return fmt.Errorf("slab %s: snapshot holds slab %d twice", c.name, s.base)
		}
		if i > 0 && c.slabs[i-1].base > s.base {
			return fmt.Errorf("slab %s: snapshot slab %d out of order after %d", c.name, s.base, c.slabs[i-1].base)
		}
		inUse, free := s.inUse, s.free
		*s = *newSlabState(s.base, s.capacity)
		s.inUse, s.free = inUse, free
		for _, f := range free {
			if f >= 0 && f < s.capacity {
				w, b := s.bit(f)
				*w |= b
			}
		}
	}
	return c.CheckInvariants()
}
