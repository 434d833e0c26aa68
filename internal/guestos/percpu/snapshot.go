package percpu

import (
	"fmt"

	"heteroos/internal/snapshot"
)

// SnapshotState codes the per-CPU caches in their exact stack order
// (Alloc pops from the top, so order is behavioural state) plus the
// hit/miss/refill/drain counters. Reading requires lists of the same
// shape.
func (l *Lists) SnapshotState(c *snapshot.Codec) error {
	cpus, dims := l.cpus, l.dims
	c.Int(&cpus)
	c.Int(&dims)
	if cpus != l.cpus || dims != l.dims {
		return fmt.Errorf("percpu: snapshot shape %dx%d != lists shape %dx%d", cpus, dims, l.cpus, l.dims)
	}
	c.U64(&l.hits)
	c.U64(&l.misses)
	c.U64(&l.refills)
	c.U64(&l.drains)
	for cpu := 0; cpu < l.cpus; cpu++ {
		for d := 0; d < l.dims; d++ {
			c.U64s(&l.cache[cpu][d])
		}
	}
	return c.Err()
}
