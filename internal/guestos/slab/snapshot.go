package slab

import (
	"fmt"
	"sort"

	"heteroos/internal/snapshot"
)

// SnapshotState codes the cache's mutable state: every slab (sorted by
// base frame) with its free-index stack in exact order, the partial
// stack in exact order (stale entries included — they are behavioural
// state: Alloc pops and skips them lazily), the empty-slab count, and
// the churn counters. Reading requires a cache of the same name and
// geometry, rebuilds the slab map and ends with CheckInvariants.
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
	slabs := make([]*slabState, 0, len(c.slabs))
	for _, s := range c.slabs {
		slabs = append(slabs, s)
	}
	sort.Slice(slabs, func(i, j int) bool { return slabs[i].base < slabs[j].base })
	var idx uint32 // a free index; declared once as it escapes through sc
	snapshot.Slice(sc, &slabs, func(s **slabState) {
		if *s == nil {
			*s = new(slabState)
		}
		sc.U64(&(*s).base)
		sc.Int(&(*s).capacity)
		sc.Int(&(*s).inUse)
		snapshot.Slice(sc, &(*s).free, func(f *int) {
			idx = uint32(*f)
			sc.U32(&idx)
			*f = int(idx)
		})
	})
	sc.U64s(&c.partial)
	if !sc.Reading() || sc.Err() != nil {
		return sc.Err()
	}
	c.slabs = make(map[uint64]*slabState, len(slabs))
	for _, s := range slabs {
		if s.capacity != c.objsPerSlab {
			return fmt.Errorf("slab %s: snapshot slab %d capacity %d != geometry %d", c.name, s.base, s.capacity, c.objsPerSlab)
		}
		if c.slabs[s.base] != nil {
			return fmt.Errorf("slab %s: snapshot holds slab %d twice", c.name, s.base)
		}
		c.slabs[s.base] = s
	}
	return c.CheckInvariants()
}
