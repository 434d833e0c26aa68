package vmm

import (
	"fmt"
	"math/bits"

	"heteroos/internal/bitset"
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
// allocation, no sort. A scan pass reports a 64-page word of heat
// changes at once; the word's moved pages are grouped by (old bucket,
// new bucket) and each group moves with one AND-NOT and one OR on the
// two bitmaps' words.
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
	// occupied has one bit per (tier, score) whose bucket holds a page,
	// so the rank walks visit only non-empty buckets.
	occupied [memsim.NumTiers][numHeatBuckets / 64]uint64
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
	set   *bitset.Set
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

// Rebuild clears the index and reseeds it from a full snapshot sweep,
// a 64-page word at a time: each backed page's node is tagged with its
// (tier, score), and the word's pages sharing a key are filed with one
// fill. Groups go in order of their lowest page, so buckets are created
// in the order a page-by-page insert would create them.
func (x *HeatIndex) Rebuild() {
	x.slots = [memsim.NumTiers][numHeatBuckets]uint16{}
	x.buckets = x.buckets[:0]
	x.counts = [memsim.NumTiers]uint64{}
	x.occupied = [memsim.NumTiers][numHeatBuckets / 64]uint64{}
	span := guestos.PFN(x.view.NumPFNs())
	// key[b] packs page b's (tier, score).
	var key [64]uint32
	for base := guestos.PFN(0); base < span; base += 64 {
		var backed uint64
		for b := 0; b < 64 && base+guestos.PFN(b) < span; b++ {
			pfn := base + guestos.PFN(b)
			n := &x.nodes[pfn]
			n.flags = 0
			snap := x.view.Snapshot(pfn)
			if snap.MFN == memsim.NilMFN {
				continue
			}
			if snap.Free {
				n.flags |= heatFree
			}
			n.tier, n.bucket = uint8(x.tierOf(snap.MFN)), x.scanner.score(pfn)
			n.flags |= heatInIndex
			key[b] = uint32(n.tier)<<8 | uint32(n.bucket)
			backed |= 1 << b
		}
		for backed != 0 {
			k, group := nextGroup(&key, backed)
			backed &^= group
			tier := uint8(k >> 8)
			x.fill(tier, uint8(k), int(base>>6), group)
			x.counts[tier] += uint64(bits.OnesCount64(group))
		}
	}
}

// nextGroup returns the key of the lowest page set in m and every page
// of m sharing that key, for callers that file a word's pages by key.
func nextGroup(key *[64]uint32, m uint64) (uint32, uint64) {
	k := key[bits.TrailingZeros64(m)]
	var group uint64
	for r := m; r != 0; r &= r - 1 {
		if b := bits.TrailingZeros64(r); key[b] == k {
			group |= 1 << b
		}
	}
	return k, group
}

// bucket returns the (tier, score) bucket, or nil if it was never used.
func (x *HeatIndex) bucket(tier, score int) *heatBucket {
	if i := x.slots[tier][score]; i != 0 {
		return &x.buckets[i-1]
	}
	return nil
}

// fill adds the pages of word w set in m to the (tier, score) bucket,
// creating the bucket and its bitmap on first use.
func (x *HeatIndex) fill(tier, score uint8, w int, m uint64) {
	i := x.slots[tier][score]
	if i == 0 {
		set := bitset.New(uint64(len(x.nodes)))
		x.buckets = append(x.buckets, heatBucket{set: &set})
		i = uint16(len(x.buckets))
		x.slots[tier][score] = i
	}
	b := &x.buckets[i-1]
	b.set.AddWord(w, m)
	b.count += uint64(bits.OnesCount64(m))
	x.occupied[tier][score>>6] |= 1 << (score & 63)
}

// drain takes the pages of word w set in m out of the (tier, score)
// bucket, which must hold them.
func (x *HeatIndex) drain(tier, score uint8, w int, m uint64) {
	b := &x.buckets[x.slots[tier][score]-1]
	b.set.RemoveWord(w, m)
	if b.count -= uint64(bits.OnesCount64(m)); b.count == 0 {
		x.occupied[tier][score>>6] &^= 1 << (score & 63)
	}
}

// insert files pfn under (tier, bucket).
func (x *HeatIndex) insert(pfn guestos.PFN, tier, bucket uint8) {
	x.fill(tier, bucket, int(pfn>>6), 1<<(pfn&63))
	x.counts[tier]++
	n := &x.nodes[pfn]
	n.bucket, n.tier = bucket, tier
	n.flags |= heatInIndex
}

// remove takes pfn out of its bucket.
func (x *HeatIndex) remove(pfn guestos.PFN) {
	n := &x.nodes[pfn]
	x.drain(n.tier, n.bucket, int(pfn>>6), 1<<(pfn&63))
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

// PagesHeatChanged rebuckets the indexed pages of word w set in changed
// after a scan-heat update, the scanner's per-word hot path. Pages that
// move between the same two buckets move together: one word AND-NOT on
// the old bucket's bitmap and one OR on the new one's.
func (x *HeatIndex) PagesHeatChanged(w int, changed uint64) {
	base := guestos.PFN(w) << 6
	// key[b] packs page b's (tier, old bucket, new bucket); moved marks
	// the pages whose bucket changes.
	var key [64]uint32
	var moved uint64
	for m := changed; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		pfn := base + guestos.PFN(b)
		n := &x.nodes[pfn]
		if n.flags&heatInIndex == 0 {
			continue
		}
		if to := x.scanner.score(pfn); to != n.bucket {
			key[b] = uint32(n.tier)<<16 | uint32(n.bucket)<<8 | uint32(to)
			n.bucket = to
			moved |= 1 << b
		}
	}
	for moved != 0 {
		k, group := nextGroup(&key, moved)
		moved &^= group
		tier, from, to := uint8(k>>16), uint8(k>>8), uint8(k)
		x.drain(tier, from, w, group)
		x.fill(tier, to, w, group)
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
// Only occupied buckets are visited.
func (x *HeatIndex) descendInto(buf []guestos.PFN, tier memsim.Tier, minScore uint8, skipFree bool, max int) []guestos.PFN {
	occ := &x.occupied[tier]
	lo := int(minScore >> 6)
	for i := len(occ) - 1; i >= lo && len(buf) < max; i-- {
		m := occ[i]
		if i == lo {
			m &^= 1<<(minScore&63) - 1
		}
		for ; m != 0 && len(buf) < max; m &^= 1 << (63 - bits.LeadingZeros64(m)) {
			buf = x.appendBucket(buf, tier, i<<6+63-bits.LeadingZeros64(m), skipFree, max)
		}
	}
	return buf
}

// ascendInto is descendInto's mirror: lowest bucket first, up to and
// including maxScore.
func (x *HeatIndex) ascendInto(buf []guestos.PFN, tier memsim.Tier, maxScore uint8, skipFree bool, max int) []guestos.PFN {
	occ := &x.occupied[tier]
	hi := int(maxScore >> 6)
	for i := 0; i <= hi && len(buf) < max; i++ {
		m := occ[i]
		if i == hi {
			m &= 2<<(maxScore&63) - 1
		}
		for ; m != 0 && len(buf) < max; m &= m - 1 {
			buf = x.appendBucket(buf, tier, i<<6+bits.TrailingZeros64(m), skipFree, max)
		}
	}
	return buf
}

// appendBucket appends the pages of the occupied bucket (tier, score) in
// ascending PFN order until buf holds max, skipping guest-free pages
// when skipFree.
func (x *HeatIndex) appendBucket(buf []guestos.PFN, tier memsim.Tier, score int, skipFree bool, max int) []guestos.PFN {
	set := x.bucket(int(tier), score).set
	for p, ok := set.Next(0); ok; p, ok = set.Next(p + 1) {
		if skipFree && x.nodes[p].flags&heatFree != 0 {
			continue
		}
		if buf = append(buf, guestos.PFN(p)); len(buf) >= max {
			break
		}
	}
	return buf
}

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
	for t := range x.occupied {
		for i, m := range x.occupied[t] {
			for ; m != 0; m &= m - 1 {
				s := i<<6 + bits.TrailingZeros64(m)
				sum.Buckets[t][s] = x.bucket(t, s).count
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
				if x.occupied[t][s>>6]>>(s&63)&1 != 0 {
					return fmt.Errorf("heatindex: (%d,%d) occupancy bit set for an unused bucket", t, s)
				}
				continue
			}
			if err := b.set.Check(uint64(len(x.nodes))); err != nil {
				return fmt.Errorf("heatindex: (%d,%d): %v", t, s, err)
			}
			var n uint64
			for p, ok := b.set.Next(0); ok; p, ok = b.set.Next(p + 1) {
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
			if occ := x.occupied[t][s>>6]>>(s&63)&1 != 0; occ != (n != 0) {
				return fmt.Errorf("heatindex: (%d,%d) occupancy bit %v with %d pages", t, s, occ, n)
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

// Compile-time check: HeatIndex satisfies the guest's notification hook.
var _ guestos.PageIndexer = (*HeatIndex)(nil)
