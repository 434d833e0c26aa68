package vmm

import (
	"fmt"
	"math/bits"

	"heteroos/internal/guestos"
	"heteroos/internal/memsim"
)

// HeatIndex is an incrementally maintained replacement for the scanner's
// sweep-and-sort ranking: 256 score buckets per tier, each an intrusive
// doubly-linked list threaded through per-PFN index nodes (the
// guestos.PageLRU pattern). The guest OS notifies the index on every
// event that changes a page's ranking inputs — backing-frame changes,
// scan-heat updates, alloc/free transitions — so membership is updated
// in O(1) per event and HottestIn/ColdestIn/CoolestIn become an O(k)
// bucket walk: no per-page TierOf call, no allocation, no sort.
//
// Ordering matches rankIn exactly and deterministically: buckets are
// visited in score order and each bucket's list is kept in ascending
// PFN order (the predecessor for an insert is found through a
// three-level bitmap in ~constant time), which reproduces rankIn's
// stable sort with its PFN tiebreak.
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
	buckets [memsim.NumTiers][numHeatBuckets]heatBucket
	counts  [memsim.NumTiers]uint64
}

// numHeatBuckets is one bucket per possible Scanner.score value.
const numHeatBuckets = 256

// heatNode flag bits.
const (
	heatInIndex = 1 << iota // page is on a bucket list
	heatFree                // guest reports the page free (KindFree)
)

// heatNode is the per-PFN intrusive list node.
type heatNode struct {
	prev, next guestos.PFN
	bucket     uint8
	tier       uint8
	flags      uint8
}

// heatBucket is one (tier, score) list plus the membership bitmap used
// to locate a new page's PFN-order predecessor. The bitmap is allocated
// lazily: heat decays toward a small fixpoint, so realistic runs occupy
// only a handful of the 512 (tier, score) combinations.
type heatBucket struct {
	head, tail guestos.PFN
	count      uint64
	set        *pfnSet
}

// NewHeatIndex builds an index over the scanner's guest view, seeds it
// from the current guest state, and attaches it to the scanner (ranking
// queries use the index from then on; rankIn stays as the reference
// implementation).
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

// Index returns the heat index attached to the scanner, or nil when
// ranking still runs through the sweep-and-sort fallback.
func (s *Scanner) Index() *HeatIndex { return s.index }

// Rebuild clears the index and reseeds it from a full snapshot sweep.
func (x *HeatIndex) Rebuild() {
	for t := range x.buckets {
		for b := range x.buckets[t] {
			x.buckets[t][b] = heatBucket{head: guestos.NilPFN, tail: guestos.NilPFN}
		}
		x.counts[t] = 0
	}
	span := x.view.NumPFNs()
	for pfn := guestos.PFN(0); pfn < guestos.PFN(span); pfn++ {
		n := &x.nodes[pfn]
		n.prev, n.next, n.flags = guestos.NilPFN, guestos.NilPFN, 0
		snap := x.view.Snapshot(pfn)
		if snap.MFN == memsim.NilMFN {
			continue
		}
		if snap.Free {
			n.flags |= heatFree
		}
		x.appendTail(pfn, uint8(x.tierOf(snap.MFN)), x.scanner.score(pfn))
	}
}

// appendTail links pfn at the tail of (tier, bucket). Rebuild visits
// PFNs in ascending order, so the tail is always pfn's PFN-order
// predecessor and no bitmap search is needed.
func (x *HeatIndex) appendTail(pfn guestos.PFN, tier, bucket uint8) {
	n := &x.nodes[pfn]
	b := x.bucket(tier, bucket)
	n.prev, n.next = b.tail, guestos.NilPFN
	if b.tail != guestos.NilPFN {
		x.nodes[b.tail].next = pfn
	} else {
		b.head = pfn
	}
	b.tail = pfn
	x.link(pfn, tier, bucket)
}

// insert links pfn into (tier, bucket) preserving ascending PFN order.
func (x *HeatIndex) insert(pfn guestos.PFN, tier, bucket uint8) {
	n := &x.nodes[pfn]
	b := x.bucket(tier, bucket)
	if pred, ok := b.set.prevBelow(uint64(pfn)); ok {
		p := guestos.PFN(pred)
		pn := &x.nodes[p]
		n.prev, n.next = p, pn.next
		if pn.next != guestos.NilPFN {
			x.nodes[pn.next].prev = pfn
		} else {
			b.tail = pfn
		}
		pn.next = pfn
	} else {
		n.prev, n.next = guestos.NilPFN, b.head
		if b.head != guestos.NilPFN {
			x.nodes[b.head].prev = pfn
		} else {
			b.tail = pfn
		}
		b.head = pfn
	}
	x.link(pfn, tier, bucket)
}

// bucket returns the (tier, bucket) list, allocating its membership
// bitmap on first use.
func (x *HeatIndex) bucket(tier, bucket uint8) *heatBucket {
	b := &x.buckets[tier][bucket]
	if b.set == nil {
		b.set = newPFNSet(uint64(len(x.nodes)))
	}
	return b
}

// link records pfn's membership of (tier, bucket) once its list
// pointers are in place.
func (x *HeatIndex) link(pfn guestos.PFN, tier, bucket uint8) {
	n := &x.nodes[pfn]
	b := &x.buckets[tier][bucket]
	b.set.add(uint64(pfn))
	b.count++
	x.counts[tier]++
	n.bucket, n.tier = bucket, tier
	n.flags |= heatInIndex
}

// remove unlinks pfn from its bucket list.
func (x *HeatIndex) remove(pfn guestos.PFN) {
	n := &x.nodes[pfn]
	b := &x.buckets[n.tier][n.bucket]
	if n.prev != guestos.NilPFN {
		x.nodes[n.prev].next = n.next
	} else {
		b.head = n.next
	}
	if n.next != guestos.NilPFN {
		x.nodes[n.next].prev = n.prev
	} else {
		b.tail = n.prev
	}
	b.set.remove(uint64(pfn))
	b.count--
	x.counts[n.tier]--
	n.prev, n.next = guestos.NilPFN, guestos.NilPFN
	n.flags &^= heatInIndex
}

// --- guestos.PageIndexer implementation ---

// PageBacked records that pfn gained (or changed) a backing frame: the
// page enters the index, or moves lists when the new frame is on a
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
// at query time exactly where rankIn consults TrustGuestState.
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
		b := &x.buckets[tier][s]
		if b.count == 0 {
			continue
		}
		for pfn := b.head; pfn != guestos.NilPFN; pfn = x.nodes[pfn].next {
			if skipFree && x.nodes[pfn].flags&heatFree != 0 {
				continue
			}
			buf = append(buf, pfn)
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
		b := &x.buckets[tier][s]
		if b.count == 0 {
			continue
		}
		for pfn := b.head; pfn != guestos.NilPFN; pfn = x.nodes[pfn].next {
			if skipFree && x.nodes[pfn].flags&heatFree != 0 {
				continue
			}
			buf = append(buf, pfn)
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
			sum.Buckets[t][s] = x.buckets[t][s].count
		}
		sum.Total[t] = x.counts[t]
	}
	return sum
}

// CheckInvariants validates the full index against the guest state:
// every backed PFN is on exactly one bucket list, its bucket equals its
// current score, its tier matches its backing frame, lists are
// PFN-ascending with consistent links and counts, and the bitmaps agree
// with list membership.
func (x *HeatIndex) CheckInvariants() error {
	var walked uint64
	for t := 0; t < int(memsim.NumTiers); t++ {
		var tierCount uint64
		for s := 0; s < numHeatBuckets; s++ {
			b := &x.buckets[t][s]
			var n uint64
			prev := guestos.NilPFN
			for pfn := b.head; pfn != guestos.NilPFN; pfn = x.nodes[pfn].next {
				nd := &x.nodes[pfn]
				if nd.flags&heatInIndex == 0 {
					return fmt.Errorf("heatindex: pfn %d on list without inIndex flag", pfn)
				}
				if int(nd.tier) != t || int(nd.bucket) != s {
					return fmt.Errorf("heatindex: pfn %d filed under (%d,%d) but tagged (%d,%d)",
						pfn, t, s, nd.tier, nd.bucket)
				}
				if nd.prev != prev {
					return fmt.Errorf("heatindex: pfn %d prev link broken in (%d,%d)", pfn, t, s)
				}
				if prev != guestos.NilPFN && pfn <= prev {
					return fmt.Errorf("heatindex: (%d,%d) not PFN-ascending at %d", t, s, pfn)
				}
				if b.set == nil || !b.set.contains(uint64(pfn)) {
					return fmt.Errorf("heatindex: pfn %d missing from (%d,%d) bitmap", pfn, t, s)
				}
				prev = pfn
				n++
				if n > uint64(len(x.nodes)) {
					return fmt.Errorf("heatindex: cycle in (%d,%d)", t, s)
				}
			}
			if prev != b.tail {
				return fmt.Errorf("heatindex: (%d,%d) tail mismatch", t, s)
			}
			if n != b.count {
				return fmt.Errorf("heatindex: (%d,%d) count %d != walked %d", t, s, b.count, n)
			}
			if b.set != nil {
				if pop := b.set.popcount(); pop != n {
					return fmt.Errorf("heatindex: (%d,%d) bitmap population %d != %d", t, s, pop, n)
				}
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
		return fmt.Errorf("heatindex: %d backed pages != %d on lists", backed, walked)
	}
	return nil
}

// pfnSet is a three-level hierarchical bitmap over the PFN space: l0 has
// one bit per PFN, l1 one bit per non-zero l0 word, l2 one bit per
// non-zero l1 word. prevBelow finds the largest member strictly below a
// PFN in at most a handful of word operations, which is what makes
// PFN-ordered list insertion O(1) for realistic spans (a 64K-page guest
// has a 16-word l1 and a 1-word l2).
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

func (s *pfnSet) contains(p uint64) bool {
	return s.l0[p>>6]&(1<<(p&63)) != 0
}

func (s *pfnSet) popcount() uint64 {
	var n uint64
	for _, w := range s.l0 {
		n += uint64(bits.OnesCount64(w))
	}
	return n
}

// prevBelow returns the largest member strictly less than p.
func (s *pfnSet) prevBelow(p uint64) (uint64, bool) {
	w0 := p >> 6
	if m := s.l0[w0] & (1<<(p&63) - 1); m != 0 {
		return w0<<6 + uint64(bits.Len64(m)-1), true
	}
	w1 := w0 >> 6
	if m := s.l1[w1] & (1<<(w0&63) - 1); m != 0 {
		w0 = w1<<6 + uint64(bits.Len64(m)-1)
		return w0<<6 + uint64(bits.Len64(s.l0[w0])-1), true
	}
	w2 := w1 >> 6
	if m := s.l2[w2] & (1<<(w1&63) - 1); m != 0 {
		w1 = w2<<6 + uint64(bits.Len64(m)-1)
		w0 = w1<<6 + uint64(bits.Len64(s.l1[w1])-1)
		return w0<<6 + uint64(bits.Len64(s.l0[w0])-1), true
	}
	for i := int64(w2) - 1; i >= 0; i-- {
		if m := s.l2[i]; m != 0 {
			w1 = uint64(i)<<6 + uint64(bits.Len64(m)-1)
			w0 = w1<<6 + uint64(bits.Len64(s.l1[w1])-1)
			return w0<<6 + uint64(bits.Len64(s.l0[w0])-1), true
		}
	}
	return 0, false
}

// Compile-time check: HeatIndex satisfies the guest's notification hook.
var _ guestos.PageIndexer = (*HeatIndex)(nil)
