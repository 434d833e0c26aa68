package memsim

import "fmt"

// Tier identifies one of the two generic memory types the paper manages.
// The design deliberately abstracts concrete technologies into a fast,
// capacity-limited tier and a slow, large tier (Section 2.1).
type Tier int

const (
	// FastMem is the high-bandwidth, low-latency, limited-capacity tier.
	FastMem Tier = iota
	// SlowMem is the low-bandwidth, high-latency, large-capacity tier.
	SlowMem
	// NumTiers is the number of managed tiers.
	NumTiers
)

// String returns the paper's name for the tier.
func (t Tier) String() string {
	switch t {
	case FastMem:
		return "FastMem"
	case SlowMem:
		return "SlowMem"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// TierSpec carries the performance parameters of one tier.
type TierSpec struct {
	LoadLatencyNs  float64
	StoreLatencyNs float64
	BandwidthGBs   float64
}

// FastTierSpec is the default FastMem: unthrottled DRAM (L:1, B:1).
func FastTierSpec() TierSpec { return Throttle{1, 1}.Spec() }

// SlowTierSpec is the paper's default SlowMem for the main evaluation:
// bandwidth reduced ~9x and latency increased ~5x (Section 5.1).
func SlowTierSpec() TierSpec { return Throttle{5, 9}.Spec() }

// MFN is a machine frame number: an index into host physical memory, in
// units of PageSize. The machine address space is laid out with all
// FastMem frames first, then all SlowMem frames, so tier lookup is a
// single comparison.
type MFN uint64

// NilMFN marks "no frame".
const NilMFN = MFN(^uint64(0))

// MaxFrames bounds every frame span: a machine's frames, a guest's
// frames and a guest's virtual pages. Per-frame metadata stores frame
// numbers, virtual page numbers and list links in 32 bits, so every
// value stays below 2^31 and the all-ones nil widens back to its 64-bit
// all-ones form by sign extension.
const MaxFrames = 1 << 31
