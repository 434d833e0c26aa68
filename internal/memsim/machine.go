package memsim

import (
	"errors"
	"fmt"
)

// ErrNoFrames is returned when a tier has no free frames left to satisfy
// an allocation.
var ErrNoFrames = errors.New("memsim: tier out of free frames")

// Owner identifies who holds a machine frame. Owner 0 is reserved for
// "free"; the VMM assigns positive owner ids to guest VMs.
type Owner int32

// OwnerFree marks an unallocated frame.
const OwnerFree Owner = 0

// Machine models host physical memory: a FastMem extent followed by a
// SlowMem extent, with per-frame ownership so invariants (no frame owned
// by two VMs) can be checked cheaply. The VMM is the only component that
// allocates from a Machine.
type Machine struct {
	spec  [NumTiers]TierSpec
	base  [NumTiers]MFN // first MFN of each tier
	size  [NumTiers]uint64
	owner []Owner // indexed by MFN
	// A tier's free frames are the frames returned to it, on the stack
	// free (MFNs narrowed below MaxFrames, popped last-in first-out),
	// and the never-used frames from base+mark up, handed out in
	// ascending order once the stack is empty.
	free     [NumTiers][]uint32
	mark     [NumTiers]uint64
	freeCnt  [NumTiers]uint64
	allocCnt [NumTiers]uint64
}

// NewMachine builds a machine with the given per-tier capacities in
// frames and performance specs. A machine of more than MaxFrames frames
// panics: Config validation rejects it first, so reaching here is a
// caller bug.
func NewMachine(fastFrames, slowFrames uint64, fast, slow TierSpec) *Machine {
	if fastFrames > MaxFrames || slowFrames > MaxFrames-fastFrames {
		panic(fmt.Sprintf("memsim: machine of %d+%d frames exceeds MaxFrames %d", fastFrames, slowFrames, uint64(MaxFrames)))
	}
	m := &Machine{}
	m.spec[FastMem] = fast
	m.spec[SlowMem] = slow
	m.base[FastMem] = 0
	m.size[FastMem] = fastFrames
	m.base[SlowMem] = MFN(fastFrames)
	m.size[SlowMem] = slowFrames
	total := fastFrames + slowFrames
	m.owner = make([]Owner, total)
	m.freeCnt = m.size
	return m
}

// Spec returns the performance parameters of tier t.
func (m *Machine) Spec(t Tier) TierSpec { return m.spec[t] }

// SetSpec replaces the performance parameters of tier t. Experiments use
// this to sweep throttle points without rebuilding frame state.
func (m *Machine) SetSpec(t Tier, s TierSpec) {
	m.spec[t] = s
}

// Frames reports the total capacity of tier t in frames.
func (m *Machine) Frames(t Tier) uint64 { return m.size[t] }

// FreeFrames reports the number of unallocated frames in tier t.
func (m *Machine) FreeFrames(t Tier) uint64 { return m.freeCnt[t] }

// AllocatedFrames reports the number of allocated frames in tier t.
func (m *Machine) AllocatedFrames(t Tier) uint64 { return m.allocCnt[t] }

// TierOf reports the tier containing mfn.
func (m *Machine) TierOf(mfn MFN) Tier {
	if uint64(mfn) < uint64(m.base[SlowMem]) {
		return FastMem
	}
	return SlowMem
}

// OwnedByRange counts, in one sweep over every frame, the frames owned
// by each owner in [lo, hi]: out[o-lo] is owner o's count.
func (m *Machine) OwnedByRange(lo, hi Owner) []uint64 {
	out := make([]uint64, hi-lo+1)
	for _, ow := range m.owner {
		if ow >= lo && ow <= hi {
			out[ow-lo]++
		}
	}
	return out
}

// Alloc takes n frames from tier t for owner o. It returns the allocated
// frames, or ErrNoFrames (allocating nothing) if fewer than n are free:
// frame grants are all-or-nothing so callers never have to unwind
// partial extents.
func (m *Machine) Alloc(t Tier, n uint64, o Owner) ([]MFN, error) {
	if o == OwnerFree {
		return nil, fmt.Errorf("memsim: Alloc with reserved owner 0")
	}
	if m.freeCnt[t] < n {
		return nil, fmt.Errorf("%w: want %d %v frames, have %d", ErrNoFrames, n, t, m.freeCnt[t])
	}
	out := make([]MFN, n)
	for i := range out {
		var mfn MFN
		if top := len(m.free[t]) - 1; top >= 0 {
			mfn = MFN(m.free[t][top])
			m.free[t] = m.free[t][:top]
		} else {
			mfn = m.base[t] + MFN(m.mark[t])
			m.mark[t]++
		}
		m.owner[mfn] = o
		out[i] = mfn
	}
	m.freeCnt[t] -= n
	m.allocCnt[t] += n
	return out, nil
}

// AllocOne takes a single frame from tier t for owner o.
func (m *Machine) AllocOne(t Tier, o Owner) (MFN, error) {
	fs, err := m.Alloc(t, 1, o)
	if err != nil {
		return NilMFN, err
	}
	return fs[0], nil
}

// Free returns frames to their tiers. Freeing a frame that is not
// allocated, or on behalf of a non-owner, panics: both indicate a
// bookkeeping bug that must not be masked.
func (m *Machine) Free(frames []MFN, o Owner) {
	for _, mfn := range frames {
		cur := m.owner[mfn]
		if cur == OwnerFree {
			panic(fmt.Sprintf("memsim: double free of MFN %d", mfn))
		}
		if cur != o {
			panic(fmt.Sprintf("memsim: owner %d freeing MFN %d owned by %d", o, mfn, cur))
		}
		t := m.TierOf(mfn)
		m.owner[mfn] = OwnerFree
		m.free[t] = append(m.free[t], uint32(mfn))
		m.freeCnt[t]++
		m.allocCnt[t]--
	}
}

// CheckInvariants validates the frame accounting: free+allocated matches
// capacity per tier, the stack and the never-used frames add up to the
// free count, free frames are unowned, and no frame is free twice. It is
// used by tests and is cheap enough to call from experiment teardown.
func (m *Machine) CheckInvariants() error {
	// seen is a bitmap over every MFN, cleared per tier list.
	seen := make([]uint64, (len(m.owner)+63)/64)
	for t := Tier(0); t < NumTiers; t++ {
		if m.freeCnt[t]+m.allocCnt[t] != m.size[t] {
			return fmt.Errorf("memsim: %v free %d + alloc %d != size %d",
				t, m.freeCnt[t], m.allocCnt[t], m.size[t])
		}
		if m.mark[t] > m.size[t] || uint64(len(m.free[t]))+m.size[t]-m.mark[t] != m.freeCnt[t] {
			return fmt.Errorf("memsim: %v free stack len %d + never-used %d-%d != count %d",
				t, len(m.free[t]), m.size[t], m.mark[t], m.freeCnt[t])
		}
		mark := m.base[t] + MFN(m.mark[t])
		for _, ow := range m.owner[mark : m.base[t]+MFN(m.size[t])] {
			if ow != OwnerFree {
				return fmt.Errorf("memsim: %v never-used frames above %d have owner %d", t, mark, ow)
			}
		}
		clear(seen)
		for _, f := range m.free[t] {
			mfn := MFN(f)
			if m.TierOf(mfn) != t {
				return fmt.Errorf("memsim: MFN %d on wrong tier list %v", mfn, t)
			}
			if mfn >= mark {
				return fmt.Errorf("memsim: MFN %d on free list is never-used (at or above %d)", mfn, mark)
			}
			if m.owner[mfn] != OwnerFree {
				return fmt.Errorf("memsim: free-list MFN %d has owner %d", mfn, m.owner[mfn])
			}
			w, bit := mfn/64, uint64(1)<<(mfn%64)
			if seen[w]&bit != 0 {
				return fmt.Errorf("memsim: MFN %d on free list twice", mfn)
			}
			seen[w] |= bit
		}
	}
	return nil
}
