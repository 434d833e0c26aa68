package memsim

import (
	"fmt"

	"heteroos/internal/snapshot"
)

// Snapshot serializes the machine's mutable state: per-tier specs (a
// throttle-shift fault may have replaced the boot-time ones), per-frame
// ownership, and the free lists in their exact
// runtime order (allocation pops from the end, so order is behavioural
// state).
func (m *Machine) Snapshot(e *snapshot.Encoder) {
	for t := Tier(0); t < NumTiers; t++ {
		e.U64(uint64(m.base[t]))
		e.U64(m.size[t])
		e.JSON(m.spec[t])
	}
	e.U32(uint32(len(m.owner)))
	for _, o := range m.owner {
		e.U32(uint32(o))
	}
	for t := Tier(0); t < NumTiers; t++ {
		free := make([]uint64, len(m.free[t]))
		for i, mfn := range m.free[t] {
			free[i] = uint64(mfn)
		}
		e.U64s(free)
		e.U64(m.freeCnt[t])
		e.U64(m.allocCnt[t])
	}
}

// Restore overwrites the machine's mutable state from a snapshot taken
// on a machine of the same geometry.
func (m *Machine) Restore(d *snapshot.Decoder) error {
	for t := Tier(0); t < NumTiers; t++ {
		base, size := MFN(d.U64()), d.U64()
		if base != m.base[t] || size != m.size[t] {
			return fmt.Errorf("memsim: snapshot %v extent [%d,+%d) != machine [%d,+%d)",
				t, base, size, m.base[t], m.size[t])
		}
		if err := d.JSON(&m.spec[t]); err != nil {
			return err
		}
	}
	if n := int(d.U32()); n != len(m.owner) {
		return fmt.Errorf("memsim: snapshot has %d frames, machine has %d", n, len(m.owner))
	}
	for i := range m.owner {
		m.owner[i] = Owner(d.U32())
	}
	for t := Tier(0); t < NumTiers; t++ {
		free := d.U64s()
		m.free[t] = m.free[t][:0]
		for _, mfn := range free {
			m.free[t] = append(m.free[t], MFN(mfn))
		}
		m.freeCnt[t] = d.U64()
		m.allocCnt[t] = d.U64()
	}
	return d.Err()
}
