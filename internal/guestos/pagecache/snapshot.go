package pagecache

import (
	"sort"

	"heteroos/internal/snapshot"
)

// SnapshotState codes the cache: the readahead window, the
// hit/miss/writeback/eviction counters and the reverse map, sorted by
// frame. Reading rebuilds the forward per-file maps and the dirty set
// from the reverse map and ends with CheckInvariants. Frame ownership
// (the callbacks' view) must be restored by the owning OS separately.
func (c *Cache) SnapshotState(sc *snapshot.Codec) error {
	sc.Int(&c.ReadaheadWindow)
	sc.U64(&c.hits)
	sc.U64(&c.misses)
	sc.U64(&c.writebacks)
	sc.U64(&c.evictions)
	type entry struct {
		pfn uint64
		m   mapping
	}
	entries := make([]entry, 0, len(c.rmap))
	for pfn, m := range c.rmap {
		entries = append(entries, entry{pfn, m})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].pfn < entries[j].pfn })
	snapshot.Slice(sc, &entries, func(e *entry) {
		sc.U64(&e.pfn)
		sc.U32((*uint32)(&e.m.file))
		sc.U64(&e.m.off)
		sc.Bool(&e.m.dirty)
	})
	if !sc.Reading() || sc.Err() != nil {
		return sc.Err()
	}
	c.files = make(map[FileID]map[uint64]uint64)
	c.rmap = make(map[uint64]mapping, len(entries))
	c.dirty = make(map[uint64]struct{})
	for _, e := range entries {
		c.insert(e.m.file, e.m.off, e.pfn)
		if e.m.dirty {
			c.rmap[e.pfn] = e.m
			c.dirty[e.pfn] = struct{}{}
		}
	}
	return c.CheckInvariants()
}
