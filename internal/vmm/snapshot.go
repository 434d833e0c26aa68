package vmm

import (
	"heteroos/internal/drf"
	"heteroos/internal/snapshot"
)

// SnapshotState codes a VM's VMM-side mutable state (grant counters and
// the populate-refusal fault latch). The guest hooks (Balloon, View)
// are rebound at restore by re-booting the guest.
func (v *VM) SnapshotState(c *snapshot.Codec) error {
	for t := range v.granted {
		c.U64(&v.granted[t])
	}
	c.Bool(&v.RefusePopulate)
	return c.Err()
}

// SnapshotState codes the scanner's cursors. The heat index is not
// serialized: it is a pure function of guest page state (CheckInvariants
// pins that), so the restorer re-attaches a freshly rebuilt index.
func (s *Scanner) SnapshotState(c *snapshot.Codec) error {
	c.U64(&s.cursor)
	c.Int(&s.trackedPos)
	return c.Err()
}

// SnapshotState codes the controller's feedback state.
func (a *AdaptiveInterval) SnapshotState(c *snapshot.Codec) error {
	c.I64((*int64)(&a.cur))
	c.F64(&a.lastMiss)
	c.Bool(&a.primed)
	return c.Err()
}

// DRFAllocator exposes the underlying weighted-DRF allocator so
// checkpoint code can serialize its share book. Nil for non-DRF
// policies (which are stateless).
func (p *DRFShare) DRFAllocator() *drf.Allocator { return p.alloc }
