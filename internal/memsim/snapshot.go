package memsim

import (
	"fmt"

	"heteroos/internal/snapshot"
)

// SnapshotState codes the machine's mutable state: per-tier specs (a
// throttle-shift fault may have replaced the boot-time ones), per-frame
// ownership, and each tier's free frames as one list in the order a
// single stack would hold them (allocation pops from the end, so order
// is behavioural state): the never-used frames from the highest down,
// then the returned frames' stack. Reading puts the whole list on the
// stack, leaving no frame never-used, which pops the same frames in the
// same order. Reading requires a machine of the same geometry and fails
// on a free frame outside its tier. Free-list entries are coded as
// 64-bit values although the machine stores them in 32 bits.
func (m *Machine) SnapshotState(c *snapshot.Codec) error {
	for t := Tier(0); t < NumTiers; t++ {
		base, size := uint64(m.base[t]), m.size[t]
		c.U64(&base)
		c.U64(&size)
		if MFN(base) != m.base[t] || size != m.size[t] {
			return fmt.Errorf("memsim: snapshot %v extent [%d,+%d) != machine [%d,+%d)",
				t, base, size, m.base[t], m.size[t])
		}
		c.JSON(&m.spec[t])
	}
	n := uint32(len(m.owner))
	c.U32(&n)
	if int(n) != len(m.owner) {
		return fmt.Errorf("memsim: snapshot has %d frames, machine has %d", n, len(m.owner))
	}
	for i := range m.owner {
		o := uint32(m.owner[i])
		c.U32(&o)
		m.owner[i] = Owner(o)
	}
	for t := Tier(0); t < NumTiers; t++ {
		fresh := int(m.size[t] - m.mark[t])
		n := fresh + len(m.free[t])
		c.Len(&n)
		if err := c.Err(); err != nil {
			return err
		}
		if c.Reading() {
			fresh, m.mark[t], m.free[t] = 0, m.size[t], make([]uint32, n)
		}
		for i := range n {
			var mfn uint64
			if i < fresh {
				mfn = uint64(m.base[t]) + m.size[t] - 1 - uint64(i)
			} else {
				mfn = uint64(m.free[t][i-fresh])
			}
			c.U64(&mfn)
			if c.Reading() {
				if c.Err() == nil && (mfn >= uint64(len(m.owner)) || m.TierOf(MFN(mfn)) != t) {
					return fmt.Errorf("memsim: snapshot %v free list holds MFN %d outside the tier's frames", t, mfn)
				}
				m.free[t][i] = uint32(mfn)
			}
		}
		c.U64(&m.freeCnt[t])
		c.U64(&m.allocCnt[t])
	}
	return c.Err()
}
