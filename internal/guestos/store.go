package guestos

import (
	"fmt"
	"math/bits"

	"heteroos/internal/memsim"
)

// PageStore owns the guest's per-frame metadata (the struct page array)
// in a struct-of-arrays layout: one PFN-indexed slice per field instead
// of one slice of fat Page structs. The PageFlags bits live in packed
// []uint64 bitmaps (one bit per page, 64 pages per word) so the
// scanner can consume access bits word-at-a-time, and per-field sweeps
// (census, reclaim walks) touch only the cache lines they need.
//
// Two summary bitmaps accelerate the scan further: scanHeatNZ /
// scanWriteHeatNZ keep one bit per page that is set exactly when the
// corresponding heat byte is nonzero. A scan pass must visit a page iff
// it was referenced OR still has heat to decay, so the per-word work set
// is (accessed | heatNZ) — all-zero words are skipped entirely without
// changing any page's state evolution (zero-heat unreferenced pages
// decay to the same zero they already hold).
type PageStore struct {
	n uint64

	mfn           []memsim.MFN
	kind          []uint8 // PageKind, narrowed (NumKinds < 256)
	vpn           []VPN
	lruPrev       []PFN
	lruNext       []PFN
	lastUse       []uint32
	scanHeat      []uint8
	scanWriteHeat []uint8
	tag           []uint64

	// One bitmap per PageFlags bit.
	accessed     []uint64 // FlagAccessed
	active       []uint64 // FlagActive
	onLRU        []uint64 // FlagOnLRU
	scanAccessed []uint64 // FlagScanAccessed
	scanWritten  []uint64 // FlagScanWritten

	scanHeatNZ      []uint64 // bit set iff scanHeat[pfn] != 0
	scanWriteHeatNZ []uint64 // bit set iff scanWriteHeat[pfn] != 0
}

// NewPageStore creates metadata for n frames, all initially unpopulated.
func NewPageStore(n uint64) *PageStore {
	words := int((n + 63) / 64)
	s := &PageStore{
		n:               n,
		mfn:             make([]memsim.MFN, n),
		kind:            make([]uint8, n),
		vpn:             make([]VPN, n),
		lruPrev:         make([]PFN, n),
		lruNext:         make([]PFN, n),
		lastUse:         make([]uint32, n),
		scanHeat:        make([]uint8, n),
		scanWriteHeat:   make([]uint8, n),
		tag:             make([]uint64, n),
		accessed:        make([]uint64, words),
		active:          make([]uint64, words),
		onLRU:           make([]uint64, words),
		scanAccessed:    make([]uint64, words),
		scanWritten:     make([]uint64, words),
		scanHeatNZ:      make([]uint64, words),
		scanWriteHeatNZ: make([]uint64, words),
	}
	for i := uint64(0); i < n; i++ {
		s.mfn[i] = memsim.NilMFN
		s.vpn[i] = NilVPN
		s.lruPrev[i] = NilPFN
		s.lruNext[i] = NilPFN
	}
	return s
}

// Len reports the number of frames tracked.
func (s *PageStore) Len() uint64 { return s.n }

// ScanWords reports the number of 64-page bitmap words covering the
// store (the last word may be partial).
func (s *PageStore) ScanWords() int { return len(s.scanAccessed) }

func bitGet(words []uint64, pfn PFN) bool {
	return words[pfn>>6]&(1<<(pfn&63)) != 0
}

func bitSet(words []uint64, pfn PFN) {
	words[pfn>>6] |= 1 << (pfn & 63)
}

func bitClear(words []uint64, pfn PFN) {
	words[pfn>>6] &^= 1 << (pfn & 63)
}

// --- per-field accessors ---

// MFN reads the backing machine frame of pfn.
func (s *PageStore) MFN(pfn PFN) memsim.MFN { return s.mfn[pfn] }

// SetMFN writes the backing machine frame of pfn.
func (s *PageStore) SetMFN(pfn PFN, m memsim.MFN) { s.mfn[pfn] = m }

// Kind reads the page kind of pfn.
func (s *PageStore) Kind(pfn PFN) PageKind { return PageKind(s.kind[pfn]) }

// SetKind writes the page kind of pfn.
func (s *PageStore) SetKind(pfn PFN, k PageKind) { s.kind[pfn] = uint8(k) }

// VPN reads the reverse-map virtual page of pfn.
func (s *PageStore) VPN(pfn PFN) VPN { return s.vpn[pfn] }

// SetVPN writes the reverse-map virtual page of pfn.
func (s *PageStore) SetVPN(pfn PFN, v VPN) { s.vpn[pfn] = v }

// LastUse reads the epoch of pfn's most recent access.
func (s *PageStore) LastUse(pfn PFN) uint32 { return s.lastUse[pfn] }

// SetLastUse writes the epoch of pfn's most recent access.
func (s *PageStore) SetLastUse(pfn PFN, e uint32) { s.lastUse[pfn] = e }

// ScanHeat reads the VMM scanner's hotness history of pfn.
func (s *PageStore) ScanHeat(pfn PFN) uint8 { return s.scanHeat[pfn] }

// SetScanHeat writes the scanner's hotness history of pfn, maintaining
// the nonzero summary bitmap the word scan skips by.
func (s *PageStore) SetScanHeat(pfn PFN, h uint8) {
	s.scanHeat[pfn] = h
	if h != 0 {
		bitSet(s.scanHeatNZ, pfn)
	} else {
		bitClear(s.scanHeatNZ, pfn)
	}
}

// ScanWriteHeat reads the tracker's store-activity history of pfn.
func (s *PageStore) ScanWriteHeat(pfn PFN) uint8 { return s.scanWriteHeat[pfn] }

// SetScanWriteHeat writes the store-activity history of pfn, maintaining
// its nonzero summary bitmap.
func (s *PageStore) SetScanWriteHeat(pfn PFN, h uint8) {
	s.scanWriteHeat[pfn] = h
	if h != 0 {
		bitSet(s.scanWriteHeatNZ, pfn)
	} else {
		bitClear(s.scanWriteHeatNZ, pfn)
	}
}

// Tag reads the simulated page contents of pfn.
func (s *PageStore) Tag(pfn PFN) uint64 { return s.tag[pfn] }

// SetTag writes the simulated page contents of pfn.
func (s *PageStore) SetTag(pfn PFN, t uint64) { s.tag[pfn] = t }

// LRUPrev reads pfn's previous LRU link.
func (s *PageStore) LRUPrev(pfn PFN) PFN { return s.lruPrev[pfn] }

// LRUNext reads pfn's next LRU link.
func (s *PageStore) LRUNext(pfn PFN) PFN { return s.lruNext[pfn] }

// --- flag operations ---

// Flags materializes the PageFlags word of pfn from the flag bitmaps.
func (s *PageStore) Flags(pfn PFN) PageFlags {
	var f PageFlags
	if bitGet(s.accessed, pfn) {
		f |= FlagAccessed
	}
	if bitGet(s.active, pfn) {
		f |= FlagActive
	}
	if bitGet(s.onLRU, pfn) {
		f |= FlagOnLRU
	}
	if bitGet(s.scanAccessed, pfn) {
		f |= FlagScanAccessed
	}
	if bitGet(s.scanWritten, pfn) {
		f |= FlagScanWritten
	}
	return f
}

// Has reports whether all bits in f are set on pfn. Single flags
// resolve to one bitmap probe; compound masks materialize.
func (s *PageStore) Has(pfn PFN, f PageFlags) bool {
	switch f {
	case FlagAccessed:
		return bitGet(s.accessed, pfn)
	case FlagActive:
		return bitGet(s.active, pfn)
	case FlagOnLRU:
		return bitGet(s.onLRU, pfn)
	case FlagScanAccessed:
		return bitGet(s.scanAccessed, pfn)
	case FlagScanWritten:
		return bitGet(s.scanWritten, pfn)
	}
	return s.Flags(pfn)&f == f
}

// lruBits reads pfn's onLRU, active and accessed flags together.
func (s *PageStore) lruBits(pfn PFN) (onLRU, active, accessed bool) {
	w, b := pfn>>6, uint64(1)<<(pfn&63)
	return s.onLRU[w]&b != 0, s.active[w]&b != 0, s.accessed[w]&b != 0
}

// Set sets the bits in f on pfn. With a constant mask the per-flag
// branches fold away.
func (s *PageStore) Set(pfn PFN, f PageFlags) {
	if f&FlagAccessed != 0 {
		bitSet(s.accessed, pfn)
	}
	if f&FlagActive != 0 {
		bitSet(s.active, pfn)
	}
	if f&FlagOnLRU != 0 {
		bitSet(s.onLRU, pfn)
	}
	if f&FlagScanAccessed != 0 {
		bitSet(s.scanAccessed, pfn)
	}
	if f&FlagScanWritten != 0 {
		bitSet(s.scanWritten, pfn)
	}
}

// Clear clears the bits in f on pfn.
func (s *PageStore) Clear(pfn PFN, f PageFlags) {
	if f&FlagAccessed != 0 {
		bitClear(s.accessed, pfn)
	}
	if f&FlagActive != 0 {
		bitClear(s.active, pfn)
	}
	if f&FlagOnLRU != 0 {
		bitClear(s.onLRU, pfn)
	}
	if f&FlagScanAccessed != 0 {
		bitClear(s.scanAccessed, pfn)
	}
	if f&FlagScanWritten != 0 {
		bitClear(s.scanWritten, pfn)
	}
}

// SetAllFlags overwrites pfn's entire flag word.
func (s *PageStore) SetAllFlags(pfn PFN, f PageFlags) {
	w, b := pfn>>6, uint64(1)<<(pfn&63)
	assign := func(words []uint64, on bool) {
		if on {
			words[w] |= b
		} else {
			words[w] &^= b
		}
	}
	assign(s.accessed, f&FlagAccessed != 0)
	assign(s.active, f&FlagActive != 0)
	assign(s.onLRU, f&FlagOnLRU != 0)
	assign(s.scanAccessed, f&FlagScanAccessed != 0)
	assign(s.scanWritten, f&FlagScanWritten != 0)
}

// --- word-at-a-time scan primitives ---

// TakeScanAccessedWord returns the scan-accessed bits of 64-page word w
// under mask (bit i covers PFN w*64+i) and clears them, emulating one
// batched test-and-clear over the whole word.
func (s *PageStore) TakeScanAccessedWord(w int, mask uint64) uint64 {
	v := s.scanAccessed[w] & mask
	s.scanAccessed[w] &^= v
	return v
}

// TakeScanWrittenWord is TakeScanAccessedWord for the tracker's private
// dirtied bits.
func (s *PageStore) TakeScanWrittenWord(w int, mask uint64) uint64 {
	v := s.scanWritten[w] & mask
	s.scanWritten[w] &^= v
	return v
}

// ScanHeatNonzeroWord reports which pages of word w (under mask) hold
// nonzero scan heat — the pages a scan pass must still decay even when
// unreferenced.
func (s *PageStore) ScanHeatNonzeroWord(w int, mask uint64) uint64 {
	return s.scanHeatNZ[w] & mask
}

// ScanWriteHeatNonzeroWord is ScanHeatNonzeroWord for write heat.
func (s *PageStore) ScanWriteHeatNonzeroWord(w int, mask uint64) uint64 {
	return s.scanWriteHeatNZ[w] & mask
}

// --- whole-page operations ---

// IsDefault reports whether pfn's metadata equals the boot-time default
// (no frame, no mapping, unlinked, zero flags and counters); snapshots
// omit such pages.
func (s *PageStore) IsDefault(pfn PFN) bool {
	return s.mfn[pfn] == memsim.NilMFN &&
		s.kind[pfn] == 0 &&
		!bitGet(s.accessed, pfn) && !bitGet(s.active, pfn) && !bitGet(s.onLRU, pfn) &&
		!bitGet(s.scanAccessed, pfn) && !bitGet(s.scanWritten, pfn) &&
		s.vpn[pfn] == NilVPN &&
		s.lruPrev[pfn] == NilPFN && s.lruNext[pfn] == NilPFN &&
		s.lastUse[pfn] == 0 &&
		s.scanHeat[pfn] == 0 && s.scanWriteHeat[pfn] == 0 &&
		s.tag[pfn] == 0
}

// Reset returns pfn's metadata to the boot-time default.
func (s *PageStore) Reset(pfn PFN) {
	s.mfn[pfn] = memsim.NilMFN
	s.kind[pfn] = 0
	s.vpn[pfn] = NilVPN
	s.lruPrev[pfn] = NilPFN
	s.lruNext[pfn] = NilPFN
	s.lastUse[pfn] = 0
	s.scanHeat[pfn] = 0
	s.scanWriteHeat[pfn] = 0
	s.tag[pfn] = 0
	s.SetAllFlags(pfn, 0)
	bitClear(s.scanHeatNZ, pfn)
	bitClear(s.scanWriteHeatNZ, pfn)
}

// ResetAll returns every frame to the boot-time default (snapshot
// restore overlays onto this).
func (s *PageStore) ResetAll() {
	for i := uint64(0); i < s.n; i++ {
		s.mfn[i] = memsim.NilMFN
		s.vpn[i] = NilVPN
		s.lruPrev[i] = NilPFN
		s.lruNext[i] = NilPFN
	}
	clearU8 := func(v []uint8) {
		for i := range v {
			v[i] = 0
		}
	}
	clearU8(s.kind)
	clearU8(s.scanHeat)
	clearU8(s.scanWriteHeat)
	for i := range s.tag {
		s.lastUse[i] = 0
		s.tag[i] = 0
	}
	for _, words := range [][]uint64{
		s.accessed, s.active, s.onLRU, s.scanAccessed, s.scanWritten,
		s.scanHeatNZ, s.scanWriteHeatNZ,
	} {
		for i := range words {
			words[i] = 0
		}
	}
}

// CheckInvariants verifies bitmap/array consistency: the nonzero summary
// bitmaps agree with the heat arrays, and no bitmap holds bits beyond
// the store's span.
func (s *PageStore) CheckInvariants() error {
	for pfn := PFN(0); pfn < PFN(s.n); pfn++ {
		if nz := bitGet(s.scanHeatNZ, pfn); nz != (s.scanHeat[pfn] != 0) {
			return fmt.Errorf("store: pfn %d scanHeat %d but NZ bit %v", pfn, s.scanHeat[pfn], nz)
		}
		if nz := bitGet(s.scanWriteHeatNZ, pfn); nz != (s.scanWriteHeat[pfn] != 0) {
			return fmt.Errorf("store: pfn %d scanWriteHeat %d but NZ bit %v", pfn, s.scanWriteHeat[pfn], nz)
		}
	}
	if tail := s.n % 64; tail != 0 && len(s.scanAccessed) > 0 {
		last := len(s.scanAccessed) - 1
		over := ^uint64(0) << tail
		for _, bm := range []struct {
			name  string
			words []uint64
		}{
			{"accessed", s.accessed}, {"active", s.active}, {"onLRU", s.onLRU},
			{"scanAccessed", s.scanAccessed}, {"scanWritten", s.scanWritten},
			{"scanHeatNZ", s.scanHeatNZ}, {"scanWriteHeatNZ", s.scanWriteHeatNZ},
		} {
			if bm.words[last]&over != 0 {
				return fmt.Errorf("store: %s bitmap has %d bits set beyond span",
					bm.name, bits.OnesCount64(bm.words[last]&over))
			}
		}
	}
	return nil
}
