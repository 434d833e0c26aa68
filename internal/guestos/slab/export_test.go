package slab

// Bases returns the base frame of every live slab, in ascending order.
func (c *Cache) Bases() []uint64 {
	out := make([]uint64, len(c.slabs))
	for i, s := range c.slabs {
		out[i] = s.base
	}
	return out
}

// ObjsPerSlab returns the number of objects each slab holds.
func (c *Cache) ObjsPerSlab() int { return c.objsPerSlab }

// PagesPerSlab returns the number of frames per slab.
func (c *Cache) PagesPerSlab() int { return c.pagesPerSlab }

// Pages reports the frames currently held by the cache.
func (c *Cache) Pages() int { return len(c.slabs) * c.pagesPerSlab }

// InUse reports the number of live objects.
func (c *Cache) InUse() int {
	n := 0
	for _, s := range c.slabs {
		n += s.inUse
	}
	return n
}
