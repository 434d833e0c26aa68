package vmm

import (
	"fmt"
	"math/bits"

	"heteroos/internal/guestos"
	"heteroos/internal/memsim"
)

// HeatIndex serves the scanner's ranking queries: 256 score buckets per
// tier, each a PFN bitmap over the guest's frames. The guest OS notifies
// the index on every event that changes a page's ranking inputs —
// backing-frame changes, scan-heat updates, alloc/free transitions — so
// membership is updated in O(1) per event (a bit flip in the old and the
// new bucket) and HottestIn/ColdestIn/CoolestIn become a walk over the
// set bits of the leading buckets: no per-page TierOf call, no
// allocation, no sort.
//
// Ordering is deterministic: buckets are visited in score order and
// each bucket's bitmap is read in ascending PFN order, so results equal
// a stable sort by score with a PFN tiebreak. The package tests check
// this against a sweep-and-sort reference.
//
// The index snapshots the scanner's scoring configuration implicitly:
// bucket assignment calls Scanner.score, so WriteBoost/TrackWrites and
// the thresholds must be fixed before the index is attached (core wires
// it after all scanner knobs are set). Changing them later requires
// Rebuild.
type HeatIndex struct {
	scanner *Scanner
	view    GuestView
	tierOf  func(memsim.MFN) memsim.Tier
	nodes   []heatNode
	// slots maps (tier, score) to 1 + the bucket's index in buckets, or
	// 0 while the combination has never held a page. Heat decays toward
	// a small fixpoint, so realistic runs use only a handful of the 512
	// combinations and the table costs 1 KiB where 512 inline buckets
	// would cost 8 KiB.
	slots   [memsim.NumTiers][numHeatBuckets]uint16
	buckets []heatBucket
	counts  [memsim.NumTiers]uint64
}

// numHeatBuckets is one bucket per possible Scanner.score value.
const numHeatBuckets = 256

// heatNode flag bits.
const (
	heatInIndex = 1 << iota // page is in a bucket
	heatFree                // guest reports the page free (KindFree)
)

// heatNode is the per-PFN record of the bucket a page is filed under.
type heatNode struct {
	bucket uint8
	tier   uint8
	flags  uint8
}

// heatBucket is one (tier, score) bucket in use: its member count and
// PFN bitmap.
type heatBucket struct {
	count uint64
	set   *pfnSet
}

// NewHeatIndex builds an index over the scanner's guest view, seeds it
// from the current guest state, and attaches it to the scanner, whose
// ranking queries read it from then on.
func NewHeatIndex(s *Scanner, tierOf func(memsim.MFN) memsim.Tier) *HeatIndex {
	x := &HeatIndex{
		scanner: s,
		view:    s.view,
		tierOf:  tierOf,
		nodes:   make([]heatNode, s.view.NumPFNs()),
	}
	x.Rebuild()
	s.index = x
	return x
}

// Index returns the heat index attached to the scanner, or nil before
// NewHeatIndex.
func (s *Scanner) Index() *HeatIndex { return s.index }

// Rebuild clears the index and reseeds it from a full snapshot sweep.
func (x *HeatIndex) Rebuild() {
	x.slots = [memsim.NumTiers][numHeatBuckets]uint16{}
	x.buckets = x.buckets[:0]
	x.counts = [memsim.NumTiers]uint64{}
	span := x.view.NumPFNs()
	for pfn := guestos.PFN(0); pfn < guestos.PFN(span); pfn++ {
		n := &x.nodes[pfn]
		n.flags = 0
		snap := x.view.Snapshot(pfn)
		if snap.MFN == memsim.NilMFN {
			continue
		}
		if snap.Free {
			n.flags |= heatFree
		}
		x.insert(pfn, uint8(x.tierOf(snap.MFN)), x.scanner.score(pfn))
	}
}

// bucket returns the (tier, score) bucket, or nil if it was never used.
func (x *HeatIndex) bucket(tier, score int) *heatBucket {
	if i := x.slots[tier][score]; i != 0 {
		return &x.buckets[i-1]
	}
	return nil
}

// insert files pfn under (tier, bucket), creating the bucket and its
// bitmap on first use.
func (x *HeatIndex) insert(pfn guestos.PFN, tier, bucket uint8) {
	i := x.slots[tier][bucket]
	if i == 0 {
		x.buckets = append(x.buckets, heatBucket{set: newPFNSet(uint64(len(x.nodes)))})
		i = uint16(len(x.buckets))
		x.slots[tier][bucket] = i
	}
	b := &x.buckets[i-1]
	b.set.add(uint64(pfn))
	b.count++
	x.counts[tier]++
	n := &x.nodes[pfn]
	n.bucket, n.tier = bucket, tier
	n.flags |= heatInIndex
}

// remove takes pfn out of its bucket.
func (x *HeatIndex) remove(pfn guestos.PFN) {
	n := &x.nodes[pfn]
	b := &x.buckets[x.slots[n.tier][n.bucket]-1]
	b.set.remove(uint64(pfn))
	b.count--
	x.counts[n.tier]--
	n.flags &^= heatInIndex
}

// --- guestos.PageIndexer implementation ---

// PageBacked records that pfn gained (or changed) a backing frame: the
// page enters the index, or moves buckets when the new frame is on a
// different tier (the VMM-exclusive migrator's SetBackingMFN path).
func (x *HeatIndex) PageBacked(pfn guestos.PFN, mfn memsim.MFN) {
	tier := uint8(x.tierOf(mfn))
	n := &x.nodes[pfn]
	if n.flags&heatInIndex != 0 {
		if n.tier == tier {
			return
		}
		x.remove(pfn)
		x.insert(pfn, tier, x.scanner.score(pfn))
		return
	}
	if x.view.Snapshot(pfn).Free {
		n.flags |= heatFree
	} else {
		n.flags &^= heatFree
	}
	x.insert(pfn, tier, x.scanner.score(pfn))
}

// PageUnbacked records that pfn lost its backing frame (balloon release).
func (x *HeatIndex) PageUnbacked(pfn guestos.PFN) {
	if x.nodes[pfn].flags&heatInIndex != 0 {
		x.remove(pfn)
	}
}

// PageHeatChanged rebuckets pfn after a scan-heat update — the scanner's
// per-sample hot path, O(1).
func (x *HeatIndex) PageHeatChanged(pfn guestos.PFN) {
	n := &x.nodes[pfn]
	if n.flags&heatInIndex == 0 {
		return
	}
	if b := x.scanner.score(pfn); b != n.bucket {
		tier := n.tier
		x.remove(pfn)
		x.insert(pfn, tier, b)
	}
}

// PageFreeChanged tracks guest alloc/free transitions. Free pages stay
// indexed (their frame is still backed; the VMM-exclusive ranking even
// considers them — it cannot see deallocations) and the flag is applied
// at query time, filtering them out only under TrustGuestState.
func (x *HeatIndex) PageFreeChanged(pfn guestos.PFN, free bool) {
	n := &x.nodes[pfn]
	if free {
		n.flags |= heatFree
	} else {
		n.flags &^= heatFree
	}
}

// --- queries ---

// descendInto appends up to max indexed pages of tier with score >=
// minScore, highest bucket first and ascending PFN within a bucket,
// skipping guest-free pages when skipFree. The caller passes a reusable
// buffer (typically buf[:0]); no allocation happens once it has grown.
func (x *HeatIndex) descendInto(buf []guestos.PFN, tier memsim.Tier, minScore uint8, skipFree bool, max int) []guestos.PFN {
	if max <= 0 {
		return buf
	}
	for s := numHeatBuckets - 1; s >= int(minScore); s-- {
		b := x.bucket(int(tier), s)
		if b == nil || b.count == 0 {
			continue
		}
		for p, ok := b.set.next(0); ok; p, ok = b.set.next(p + 1) {
			if skipFree && x.nodes[p].flags&heatFree != 0 {
				continue
			}
			buf = append(buf, guestos.PFN(p))
			if len(buf) >= max {
				return buf
			}
		}
	}
	return buf
}

// ascendInto is descendInto's mirror: lowest bucket first, up to and
// including maxScore.
func (x *HeatIndex) ascendInto(buf []guestos.PFN, tier memsim.Tier, maxScore uint8, skipFree bool, max int) []guestos.PFN {
	if max <= 0 {
		return buf
	}
	for s := 0; s <= int(maxScore); s++ {
		b := x.bucket(int(tier), s)
		if b == nil || b.count == 0 {
			continue
		}
		for p, ok := b.set.next(0); ok; p, ok = b.set.next(p + 1) {
			if skipFree && x.nodes[p].flags&heatFree != 0 {
				continue
			}
			buf = append(buf, guestos.PFN(p))
			if len(buf) >= max {
				return buf
			}
		}
	}
	return buf
}

// Count reports indexed pages on tier (tests, diagnostics).
func (x *HeatIndex) Count(tier memsim.Tier) uint64 { return x.counts[tier] }

// HeatSummary is a comparable fingerprint of an index: indexed-page
// counts per (tier, score bucket). Two indexes over equivalent guest
// state — identical per-PFN heat, free flags, and tier backing — yield
// equal summaries, which is how cross-host migration tests assert a
// VM's heat profile survived the move.
type HeatSummary struct {
	Buckets [memsim.NumTiers][numHeatBuckets]uint64
	Total   [memsim.NumTiers]uint64
}

// Summary captures the index's current bucket occupancy.
func (x *HeatIndex) Summary() HeatSummary {
	var sum HeatSummary
	for t := 0; t < int(memsim.NumTiers); t++ {
		for s := 0; s < numHeatBuckets; s++ {
			if b := x.bucket(t, s); b != nil {
				sum.Buckets[t][s] = b.count
			}
		}
		sum.Total[t] = x.counts[t]
	}
	return sum
}

// CheckInvariants validates the full index against the guest state:
// every backed PFN is in exactly one bucket, its bucket equals its
// current score, its tier matches its backing frame, bucket counts
// match their bitmaps, and each bitmap's summary levels agree with the
// level below.
func (x *HeatIndex) CheckInvariants() error {
	seen := make([]bool, len(x.buckets))
	for t := range x.slots {
		for s, i := range x.slots[t] {
			if i == 0 {
				continue
			}
			if int(i) > len(x.buckets) || seen[i-1] {
				return fmt.Errorf("heatindex: (%d,%d) slot %d is out of range or shared", t, s, i)
			}
			seen[i-1] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("heatindex: bucket %d has no slot", i)
		}
	}
	var walked uint64
	for t := 0; t < int(memsim.NumTiers); t++ {
		var tierCount uint64
		for s := 0; s < numHeatBuckets; s++ {
			b := x.bucket(t, s)
			if b == nil {
				continue
			}
			if err := b.set.check(uint64(len(x.nodes))); err != nil {
				return fmt.Errorf("heatindex: (%d,%d): %v", t, s, err)
			}
			var n uint64
			for p, ok := b.set.next(0); ok; p, ok = b.set.next(p + 1) {
				nd := &x.nodes[p]
				if nd.flags&heatInIndex == 0 {
					return fmt.Errorf("heatindex: pfn %d in bucket without inIndex flag", p)
				}
				if int(nd.tier) != t || int(nd.bucket) != s {
					return fmt.Errorf("heatindex: pfn %d filed under (%d,%d) but tagged (%d,%d)",
						p, t, s, nd.tier, nd.bucket)
				}
				n++
			}
			if n != b.count {
				return fmt.Errorf("heatindex: (%d,%d) count %d != walked %d", t, s, b.count, n)
			}
			tierCount += n
		}
		if tierCount != x.counts[t] {
			return fmt.Errorf("heatindex: tier %d count %d != walked %d", t, x.counts[t], tierCount)
		}
		walked += tierCount
	}
	var backed uint64
	for pfn := guestos.PFN(0); pfn < guestos.PFN(x.view.NumPFNs()); pfn++ {
		snap := x.view.Snapshot(pfn)
		nd := &x.nodes[pfn]
		in := nd.flags&heatInIndex != 0
		if (snap.MFN != memsim.NilMFN) != in {
			return fmt.Errorf("heatindex: pfn %d backed=%v but indexed=%v",
				pfn, snap.MFN != memsim.NilMFN, in)
		}
		if !in {
			continue
		}
		backed++
		if got, want := nd.bucket, x.scanner.score(pfn); got != want {
			return fmt.Errorf("heatindex: pfn %d bucket %d != score %d", pfn, got, want)
		}
		if got, want := memsim.Tier(nd.tier), x.tierOf(snap.MFN); got != want {
			return fmt.Errorf("heatindex: pfn %d tier %v != backing tier %v", pfn, got, want)
		}
		if free := nd.flags&heatFree != 0; free != snap.Free {
			return fmt.Errorf("heatindex: pfn %d free flag %v != guest %v", pfn, free, snap.Free)
		}
	}
	if backed != walked {
		return fmt.Errorf("heatindex: %d backed pages != %d in buckets", backed, walked)
	}
	return nil
}

// pfnSet is a three-level hierarchical bitmap over the PFN space: l0 has
// one bit per PFN, l1 one bit per non-zero l0 word, l2 one bit per
// non-zero l1 word. next finds the smallest member at or above a PFN in
// at most a handful of word operations, skipping empty stretches 4096
// or 262144 PFNs at a time (a 64K-page guest has a 16-word l1 and a
// 1-word l2).
type pfnSet struct {
	l0, l1, l2 []uint64
}

func newPFNSet(span uint64) *pfnSet {
	n0 := (span + 63) / 64
	n1 := (n0 + 63) / 64
	n2 := (n1 + 63) / 64
	return &pfnSet{
		l0: make([]uint64, n0),
		l1: make([]uint64, n1),
		l2: make([]uint64, n2),
	}
}

func (s *pfnSet) add(p uint64) {
	s.l0[p>>6] |= 1 << (p & 63)
	s.l1[p>>12] |= 1 << ((p >> 6) & 63)
	s.l2[p>>18] |= 1 << ((p >> 12) & 63)
}

func (s *pfnSet) remove(p uint64) {
	w0 := p >> 6
	s.l0[w0] &^= 1 << (p & 63)
	if s.l0[w0] != 0 {
		return
	}
	w1 := w0 >> 6
	s.l1[w1] &^= 1 << (w0 & 63)
	if s.l1[w1] != 0 {
		return
	}
	s.l2[w1>>6] &^= 1 << (w1 & 63)
}

// next returns the smallest member greater than or equal to p.
func (s *pfnSet) next(p uint64) (uint64, bool) {
	w0 := p >> 6
	if w0 >= uint64(len(s.l0)) {
		return 0, false
	}
	if m := s.l0[w0] &^ (1<<(p&63) - 1); m != 0 {
		return w0<<6 + uint64(bits.TrailingZeros64(m)), true
	}
	w0++
	w1 := w0 >> 6
	if w1 >= uint64(len(s.l1)) {
		return 0, false
	}
	if m := s.l1[w1] &^ (1<<(w0&63) - 1); m != 0 {
		w0 = w1<<6 + uint64(bits.TrailingZeros64(m))
		return w0<<6 + uint64(bits.TrailingZeros64(s.l0[w0])), true
	}
	w1++
	w2 := w1 >> 6
	if w2 >= uint64(len(s.l2)) {
		return 0, false
	}
	m := s.l2[w2] &^ (1<<(w1&63) - 1)
	for m == 0 {
		if w2++; w2 >= uint64(len(s.l2)) {
			return 0, false
		}
		m = s.l2[w2]
	}
	w1 = w2<<6 + uint64(bits.TrailingZeros64(m))
	w0 = w1<<6 + uint64(bits.TrailingZeros64(s.l1[w1]))
	return w0<<6 + uint64(bits.TrailingZeros64(s.l0[w0])), true
}

// check verifies that each summary bit is set exactly when the word it
// covers is non-zero, and that no bit lies beyond span.
func (s *pfnSet) check(span uint64) error {
	if tail := span & 63; tail != 0 && s.l0[len(s.l0)-1]>>tail != 0 {
		return fmt.Errorf("pfnSet: member beyond span %d", span)
	}
	for _, lv := range []struct{ lo, hi []uint64 }{{s.l0, s.l1}, {s.l1, s.l2}} {
		for i := range lv.hi {
			var want uint64
			for b := 0; b < 64 && i<<6+b < len(lv.lo); b++ {
				if lv.lo[i<<6+b] != 0 {
					want |= 1 << b
				}
			}
			if lv.hi[i] != want {
				return fmt.Errorf("pfnSet: summary word %d is %#x, covers %#x", i, lv.hi[i], want)
			}
		}
	}
	return nil
}

// Compile-time check: HeatIndex satisfies the guest's notification hook.
var _ guestos.PageIndexer = (*HeatIndex)(nil)
