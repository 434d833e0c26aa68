package pagecache

import (
	"fmt"

	"heteroos/internal/snapshot"
)

// SnapshotState codes the cache: the readahead window and every cached
// page in ascending frame order as (frame, file, offset, dirty).
// Reading rebuilds the indexes from those pages; it rejects a frame
// outside the span, frames out of ascending order or repeated, an
// offset wider than 32 bits and two frames caching one file page, and
// ends with CheckInvariants. Frame ownership (the callbacks' view) must be
// restored by the owning OS separately.
func (c *Cache) SnapshotState(sc *snapshot.Codec) error {
	sc.Int(&c.ReadaheadWindow)
	var (
		pfn, off uint64
		id       uint32
		dirty    bool
	)
	page := func() {
		sc.U64(&pfn)
		sc.U32(&id)
		sc.U64(&off)
		sc.Bool(&dirty)
	}
	n := c.pages
	sc.Len(&n)
	if !sc.Reading() {
		for p, e := range c.rmap {
			if e.file != 0 {
				pfn, id, off, dirty = uint64(p), uint32(c.files[e.file-1].id), uint64(e.off), c.dirty.Has(uint64(p))
				page()
			}
		}
		return sc.Err()
	}
	if sc.Err() != nil {
		return sc.Err()
	}
	c.reset()
	for i := 0; i < n; i++ {
		prev := pfn
		if page(); sc.Err() != nil {
			return sc.Err()
		}
		switch {
		case pfn >= c.span:
			return fmt.Errorf("pagecache: snapshot frame %d outside span %d", pfn, c.span)
		case i > 0 && pfn <= prev:
			return fmt.Errorf("pagecache: snapshot frame %d follows %d", pfn, prev)
		case off > maxOffset:
			return fmt.Errorf("pagecache: snapshot offset %d of frame %d exceeds %d", off, pfn, uint64(maxOffset))
		}
		if _, dup := c.Lookup(FileID(id), off); dup {
			return fmt.Errorf("pagecache: snapshot frame %d repeats %d@%d in the forward map", pfn, id, off)
		}
		c.insert(FileID(id), off, pfn)
		if dirty {
			c.dirty.Add(pfn)
			c.ndirt++
		}
	}
	return c.CheckInvariants()
}

// reset empties the cache's indexes, keeping the reverse-map column and
// dirty set allocated.
func (c *Cache) reset() {
	clear(c.rmap)
	c.dirty.Clear()
	c.files, c.last, c.spare = nil, nil, nil
	c.pages, c.ndirt = 0, 0
}
