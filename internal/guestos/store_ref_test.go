package guestos

import (
	"math/rand"
	"testing"

	"heteroos/internal/memsim"
)

// Page is one frame's metadata (struct page) as a single value: the
// reference store's storage and what pageView assembles from the real
// struct-of-arrays PageStore, so the two can be compared field by field.
type Page struct {
	MFN   memsim.MFN // backing machine frame; NilMFN when unpopulated
	Kind  PageKind
	Flags PageFlags
	// VPN backrefs for reverse mapping: anonymous pages record the
	// mapping virtual page; cache pages record file and offset.
	VPN     VPN
	File    FileID
	FileOff uint64
	// LRU intrusive list links (PFN-indexed; NilPFN terminated).
	lruPrev, lruNext PFN
	// LastUse is the epoch of the most recent access, used by the LRU
	// and by eviction ordering.
	LastUse uint32
	// Heat counts touches (guest-side popularity signal).
	Heat uint32
	// ScanHeat is the VMM scanner's per-page hotness history. It lives
	// in the page metadata (not a VMM-side array) so it travels with the
	// page when a guest-controlled migration changes its frame.
	ScanHeat uint8
	// ScanWriteHeat is the tracker's store-activity history (the PAGE_RW
	// scanning of Section 4.3's write-aware extension).
	ScanWriteHeat uint8
	// Tag models page contents so tests can verify migration copies.
	Tag uint64
}

// defaultPage is the store's boot-time value for every frame.
var defaultPage = Page{MFN: memsim.NilMFN, VPN: NilVPN, lruPrev: NilPFN, lruNext: NilPFN}

// pageView materializes pfn's metadata in st as a Page value.
func pageView(st *PageStore, pfn PFN) Page {
	return Page{
		MFN:           st.mfn[pfn],
		Kind:          PageKind(st.kind[pfn]),
		Flags:         st.Flags(pfn),
		VPN:           st.vpn[pfn],
		File:          st.file[pfn],
		FileOff:       st.fileOff[pfn],
		lruPrev:       st.lruPrev[pfn],
		lruNext:       st.lruNext[pfn],
		LastUse:       st.lastUse[pfn],
		Heat:          st.heat[pfn],
		ScanHeat:      st.scanHeat[pfn],
		ScanWriteHeat: st.scanWriteHeat[pfn],
		Tag:           st.tag[pfn],
	}
}

// refStore is the obviously-correct reference implementation of the
// PageStore contract: one fat Page struct per frame, every operation a
// direct field poke, word-granular primitives done bit by bit. The
// differential test below drives it in lockstep with the real
// struct-of-arrays store and demands identical observable state, so any
// bitmap/summary bookkeeping bug in store.go shows up as a divergence.
type refStore struct {
	pages []Page
}

func newRefStore(n uint64) *refStore {
	r := &refStore{pages: make([]Page, n)}
	for i := range r.pages {
		r.pages[i] = defaultPage
	}
	return r
}

func (r *refStore) takeWord(w int, mask uint64, f PageFlags) uint64 {
	var out uint64
	for b := uint64(0); b < 64; b++ {
		if mask&(1<<b) == 0 {
			continue
		}
		pfn := PFN(uint64(w)<<6 + b)
		if int(pfn) >= len(r.pages) {
			continue
		}
		if r.pages[pfn].Flags&f != 0 {
			out |= 1 << b
			r.pages[pfn].Flags &^= f
		}
	}
	return out
}

func (r *refStore) nonzeroWord(w int, mask uint64, write bool) uint64 {
	var out uint64
	for b := uint64(0); b < 64; b++ {
		if mask&(1<<b) == 0 {
			continue
		}
		pfn := PFN(uint64(w)<<6 + b)
		if int(pfn) >= len(r.pages) {
			continue
		}
		h := r.pages[pfn].ScanHeat
		if write {
			h = r.pages[pfn].ScanWriteHeat
		}
		if h != 0 {
			out |= 1 << b
		}
	}
	return out
}

// allTestFlags is every defined flag bit, hot and cold.
const allTestFlags = FlagAccessed | FlagDirty | FlagActive | FlagOnLRU |
	FlagPinned | FlagBalloon | FlagFastPref | FlagScanAccessed | FlagScanWritten

// TestPageStoreDifferential drives the SoA store and the reference store
// with the same random operation stream and compares every read-back.
func TestPageStoreDifferential(t *testing.T) {
	const n = 200 // 3 full bitmap words + a partial tail word
	rng := rand.New(rand.NewSource(42))
	st := NewPageStore(n)
	ref := newRefStore(n)

	randFlags := func() PageFlags {
		return PageFlags(rng.Uint64()) & allTestFlags
	}
	checkPage := func(step int, pfn PFN) {
		got, want := pageView(st, pfn), ref.pages[pfn]
		if got != want {
			t.Fatalf("step %d: pfn %d diverged:\n soa %+v\n ref %+v", step, pfn, got, want)
		}
	}

	for step := 0; step < 20000; step++ {
		pfn := PFN(rng.Intn(n))
		switch rng.Intn(18) {
		case 0:
			m := memsim.MFN(rng.Uint64())
			st.SetMFN(pfn, m)
			ref.pages[pfn].MFN = m
		case 1:
			k := PageKind(rng.Intn(int(NumKinds)))
			st.SetKind(pfn, k)
			ref.pages[pfn].Kind = k
		case 2:
			v := VPN(rng.Uint64())
			st.SetVPN(pfn, v)
			ref.pages[pfn].VPN = v
		case 3:
			f := FileID(rng.Uint32())
			st.SetFile(pfn, f)
			ref.pages[pfn].File = f
		case 4:
			off := rng.Uint64()
			st.SetFileOff(pfn, off)
			ref.pages[pfn].FileOff = off
		case 5:
			e := rng.Uint32()
			st.SetLastUse(pfn, e)
			ref.pages[pfn].LastUse = e
		case 6:
			h := rng.Uint32()
			st.SetHeat(pfn, h)
			ref.pages[pfn].Heat = h
		case 7:
			h := uint8(rng.Intn(256))
			st.SetScanHeat(pfn, h)
			ref.pages[pfn].ScanHeat = h
		case 8:
			h := uint8(rng.Intn(256))
			st.SetScanWriteHeat(pfn, h)
			ref.pages[pfn].ScanWriteHeat = h
		case 9:
			tag := rng.Uint64()
			st.SetTag(pfn, tag)
			ref.pages[pfn].Tag = tag
		case 10:
			f := randFlags()
			st.Set(pfn, f)
			ref.pages[pfn].Flags |= f
		case 11:
			f := randFlags()
			st.Clear(pfn, f)
			ref.pages[pfn].Flags &^= f
		case 12:
			f := randFlags()
			st.SetAllFlags(pfn, f)
			ref.pages[pfn].Flags = f
		case 13:
			st.Reset(pfn)
			ref.pages[pfn] = defaultPage
		case 14:
			w := rng.Intn(st.ScanWords())
			mask := rng.Uint64()
			got := st.TakeScanAccessedWord(w, mask)
			want := ref.takeWord(w, mask, FlagScanAccessed)
			if got != want {
				t.Fatalf("step %d: TakeScanAccessedWord(%d, %#x) = %#x, ref %#x", step, w, mask, got, want)
			}
		case 15:
			w := rng.Intn(st.ScanWords())
			mask := rng.Uint64()
			got := st.TakeScanWrittenWord(w, mask)
			want := ref.takeWord(w, mask, FlagScanWritten)
			if got != want {
				t.Fatalf("step %d: TakeScanWrittenWord(%d, %#x) = %#x, ref %#x", step, w, mask, got, want)
			}
		case 16:
			w := rng.Intn(st.ScanWords())
			mask := rng.Uint64()
			got := st.ScanHeatNonzeroWord(w, mask)
			want := ref.nonzeroWord(w, mask, false)
			if got != want {
				t.Fatalf("step %d: ScanHeatNonzeroWord(%d, %#x) = %#x, ref %#x", step, w, mask, got, want)
			}
		case 17:
			w := rng.Intn(st.ScanWords())
			mask := rng.Uint64()
			got := st.ScanWriteHeatNonzeroWord(w, mask)
			want := ref.nonzeroWord(w, mask, true)
			if got != want {
				t.Fatalf("step %d: ScanWriteHeatNonzeroWord(%d, %#x) = %#x, ref %#x", step, w, mask, got, want)
			}
		}
		// Point probes after every op.
		checkPage(step, pfn)
		probe := PFN(rng.Intn(n))
		if f := randFlags(); st.Has(probe, f) != (ref.pages[probe].Flags&f == f) {
			t.Fatalf("step %d: Has(%d, %v) diverged", step, probe, f)
		}
		if st.IsDefault(probe) != (ref.pages[probe] == defaultPage) {
			t.Fatalf("step %d: IsDefault(%d) diverged", step, probe)
		}
		// Full sweeps + invariants, periodically (they are O(n)).
		if step%997 == 0 {
			for p := PFN(0); p < PFN(n); p++ {
				checkPage(step, p)
			}
			if err := st.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// ResetAll returns every frame to the boot default.
	st.ResetAll()
	for p := PFN(0); p < PFN(n); p++ {
		if !st.IsDefault(p) {
			t.Fatalf("pfn %d not default after ResetAll: %+v", p, pageView(st, p))
		}
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPageStoreInvariantsCatchCorruption: CheckInvariants must notice a
// summary bitmap that disagrees with its heat array, and bits set beyond
// the span in the tail word.
func TestPageStoreInvariantsCatchCorruption(t *testing.T) {
	st := NewPageStore(100)
	st.SetScanHeat(5, 9)
	bitClear(st.scanHeatNZ, 5) // desync summary from array
	if err := st.CheckInvariants(); err == nil {
		t.Fatal("stale scanHeatNZ bit not detected")
	}

	st = NewPageStore(100)
	st.scanWriteHeatNZ[0] |= 1 << 7 // NZ bit with zero heat byte
	if err := st.CheckInvariants(); err == nil {
		t.Fatal("spurious scanWriteHeatNZ bit not detected")
	}

	st = NewPageStore(100) // tail word covers PFNs 64..99; 100..127 are beyond span
	st.accessed[1] |= 1 << 63
	if err := st.CheckInvariants(); err == nil {
		t.Fatal("accessed bit beyond span not detected")
	}
}
