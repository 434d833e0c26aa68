package slab

// Bases returns the base frame of every live slab, in ascending order.
func (c *Cache) Bases() []uint64 {
	out := make([]uint64, len(c.slabs))
	for i, s := range c.slabs {
		out[i] = s.base
	}
	return out
}
