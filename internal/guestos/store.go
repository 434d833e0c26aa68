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
//
// Frame numbers, virtual page numbers and LRU links are stored in 32
// bits (the mfn, vpn, lruPrev and lruNext columns). The store spans at
// most memsim.MaxFrames frames and SetMFN/SetVPN accept only values
// below it or the nil value, so every stored value is below 2^31 or all
// ones, and widen restores the 64-bit value, nil included.
type PageStore struct {
	n uint64

	mfn           []uint32 // memsim.MFN, narrowed
	kind          []uint8  // PageKind, narrowed (NumKinds < 256)
	vpn           []uint32 // VPN, narrowed
	lruPrev       []uint32 // PFN, narrowed
	lruNext       []uint32 // PFN, narrowed
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

// NewPageStore creates metadata for n frames, all initially
// unpopulated. A span of more than memsim.MaxFrames frames panics: New
// rejects it first, so reaching here is a caller bug.
func NewPageStore(n uint64) *PageStore {
	if n > memsim.MaxFrames {
		panic(fmt.Sprintf("guestos: page store of %d frames exceeds MaxFrames %d", n, uint64(memsim.MaxFrames)))
	}
	words := int((n + 63) / 64)
	s := &PageStore{
		n:               n,
		mfn:             make([]uint32, n),
		kind:            make([]uint8, n),
		vpn:             make([]uint32, n),
		lruPrev:         make([]uint32, n),
		lruNext:         make([]uint32, n),
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
	s.resetLinks()
	return s
}

// nil32 is the stored form of NilMFN, NilVPN and NilPFN.
const nil32 = ^uint32(0)

// widen returns the 64-bit value of a stored 32-bit one. Sign extension
// maps nil32 to the 64-bit all-ones nil and leaves every value below
// 2^31 unchanged.
func widen(v uint32) uint64 { return uint64(int64(int32(v))) }

// narrow returns the stored form of v, panicking unless v is nil or
// below memsim.MaxFrames. The +1 wraps nil to 0, so one comparison
// covers both cases.
func narrow(v uint64) uint32 {
	if v+1 > memsim.MaxFrames {
		outOfDomain(v)
	}
	return uint32(v)
}

// outOfDomain is kept out of line so narrow stays inlinable.
//
//go:noinline
func outOfDomain(v uint64) {
	panic(fmt.Sprintf("guestos: frame or page number %d is neither nil nor below MaxFrames", v))
}

// resetLinks sets every frame's MFN, VPN and LRU links to nil.
func (s *PageStore) resetLinks() {
	for _, col := range [][]uint32{s.mfn, s.vpn, s.lruPrev, s.lruNext} {
		for i := range col {
			col[i] = nil32
		}
	}
}

// Len reports the number of frames tracked.
func (s *PageStore) Len() uint64 { return s.n }

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
func (s *PageStore) MFN(pfn PFN) memsim.MFN { return memsim.MFN(widen(s.mfn[pfn])) }

// SetMFN writes the backing machine frame of pfn (NilMFN or below
// memsim.MaxFrames; anything else panics).
func (s *PageStore) SetMFN(pfn PFN, m memsim.MFN) { s.mfn[pfn] = narrow(uint64(m)) }

// Kind reads the page kind of pfn.
func (s *PageStore) Kind(pfn PFN) PageKind { return PageKind(s.kind[pfn]) }

// SetKind writes the page kind of pfn.
func (s *PageStore) SetKind(pfn PFN, k PageKind) { s.kind[pfn] = uint8(k) }

// VPN reads the reverse-map virtual page of pfn.
func (s *PageStore) VPN(pfn PFN) VPN { return VPN(widen(s.vpn[pfn])) }

// SetVPN writes the reverse-map virtual page of pfn (NilVPN or below
// memsim.MaxFrames; anything else panics).
func (s *PageStore) SetVPN(pfn PFN, v VPN) { s.vpn[pfn] = narrow(uint64(v)) }

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
func (s *PageStore) LRUPrev(pfn PFN) PFN { return PFN(widen(s.lruPrev[pfn])) }

// LRUNext reads pfn's next LRU link.
func (s *PageStore) LRUNext(pfn PFN) PFN { return PFN(widen(s.lruNext[pfn])) }

// setLRUPrev and setLRUNext write pfn's LRU links. Links are store PFNs
// or NilPFN, so they always narrow exactly.
func (s *PageStore) setLRUPrev(pfn, p PFN) { s.lruPrev[pfn] = uint32(p) }
func (s *PageStore) setLRUNext(pfn, p PFN) { s.lruNext[pfn] = uint32(p) }

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

// foldHeatWord applies one scan step to a heat column (scanHeat or
// scanWriteHeat, with its nonzero summary bitmap nz) for the pages of
// word w selected by work: each one's heat halves and gains 4 if its
// bit is set in hit. It returns the pages whose heat changed and, among
// them, those whose heat dropped from at least 6 to below 6.
func foldHeatWord(heat []uint8, nz []uint64, w int, work, hit uint64) (changed, dropped uint64) {
	base := w << 6
	var zero uint64
	for m := work; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		old := heat[base+b]
		h := old>>1 + uint8(hit>>b&1)<<2
		if h == old {
			continue
		}
		heat[base+b] = h
		bit := uint64(1) << b
		changed |= bit
		if h == 0 {
			zero |= bit
		}
		if old >= 6 && h < 6 {
			dropped |= bit
		}
	}
	nz[w] = (nz[w] | changed) &^ zero
	return changed, dropped
}

// --- whole-page operations ---

// IsDefault reports whether pfn's metadata equals the boot-time default
// (no frame, no mapping, unlinked, zero flags and counters); snapshots
// omit such pages.
func (s *PageStore) IsDefault(pfn PFN) bool {
	return s.mfn[pfn] == nil32 &&
		s.kind[pfn] == 0 &&
		!bitGet(s.accessed, pfn) && !bitGet(s.active, pfn) && !bitGet(s.onLRU, pfn) &&
		!bitGet(s.scanAccessed, pfn) && !bitGet(s.scanWritten, pfn) &&
		s.vpn[pfn] == nil32 &&
		s.lruPrev[pfn] == nil32 && s.lruNext[pfn] == nil32 &&
		s.lastUse[pfn] == 0 &&
		s.scanHeat[pfn] == 0 && s.scanWriteHeat[pfn] == 0 &&
		s.tag[pfn] == 0
}

// ResetAll returns every frame to the boot-time default (snapshot
// restore overlays onto this).
func (s *PageStore) ResetAll() {
	s.resetLinks()
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
