package guestos

import (
	"fmt"
	"math/rand"
	"runtime"
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
	// VPN is the reverse-map virtual page of a mapped page.
	VPN VPN
	// LRU intrusive list links (PFN-indexed; NilPFN terminated).
	lruPrev, lruNext PFN
	// LastUse is the epoch of the most recent access, used by the LRU
	// and by eviction ordering.
	LastUse uint32
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
		MFN:           st.MFN(pfn),
		Kind:          PageKind(st.kind[pfn]),
		Flags:         st.Flags(pfn),
		VPN:           st.VPN(pfn),
		lruPrev:       st.LRUPrev(pfn),
		lruNext:       st.LRUNext(pfn),
		LastUse:       st.lastUse[pfn],
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

// allTestFlags is every defined flag bit.
const allTestFlags = FlagAccessed | FlagActive | FlagOnLRU | FlagScanAccessed | FlagScanWritten

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
	// randFrame draws a value from the 32-bit storage domain: nil, the
	// largest and smallest storable values, or a random one below
	// memsim.MaxFrames.
	randFrame := func() uint64 {
		switch rng.Intn(8) {
		case 0:
			return ^uint64(0)
		case 1:
			return memsim.MaxFrames - 1
		case 2:
			return 0
		}
		return uint64(rng.Int63n(memsim.MaxFrames))
	}
	// randLink draws an LRU link: nil or a PFN of the store.
	randLink := func() PFN {
		if rng.Intn(4) == 0 {
			return NilPFN
		}
		return PFN(rng.Intn(n))
	}
	checkPage := func(step int, pfn PFN) {
		got, want := pageView(st, pfn), ref.pages[pfn]
		if got != want {
			t.Fatalf("step %d: pfn %d diverged:\n soa %+v\n ref %+v", step, pfn, got, want)
		}
	}

	for step := 0; step < 20000; step++ {
		pfn := PFN(rng.Intn(n))
		switch rng.Intn(17) {
		case 0:
			m := memsim.MFN(randFrame())
			st.SetMFN(pfn, m)
			ref.pages[pfn].MFN = m
		case 1:
			k := PageKind(rng.Intn(int(NumKinds)))
			st.SetKind(pfn, k)
			ref.pages[pfn].Kind = k
		case 2:
			v := VPN(randFrame())
			st.SetVPN(pfn, v)
			ref.pages[pfn].VPN = v
		case 3:
			e := rng.Uint32()
			st.SetLastUse(pfn, e)
			ref.pages[pfn].LastUse = e
		case 4:
			h := uint8(rng.Intn(256))
			st.SetScanHeat(pfn, h)
			ref.pages[pfn].ScanHeat = h
		case 5:
			h := uint8(rng.Intn(256))
			st.SetScanWriteHeat(pfn, h)
			ref.pages[pfn].ScanWriteHeat = h
		case 6:
			tag := rng.Uint64()
			st.SetTag(pfn, tag)
			ref.pages[pfn].Tag = tag
		case 7:
			f := randFlags()
			st.Set(pfn, f)
			ref.pages[pfn].Flags |= f
		case 8:
			f := randFlags()
			st.Clear(pfn, f)
			ref.pages[pfn].Flags &^= f
		case 9:
			f := randFlags()
			st.SetAllFlags(pfn, f)
			ref.pages[pfn].Flags = f
		case 10:
			st.Reset(pfn)
			ref.pages[pfn] = defaultPage
		case 11:
			w := rng.Intn(len(st.scanAccessed))
			mask := rng.Uint64()
			got := st.TakeScanAccessedWord(w, mask)
			want := ref.takeWord(w, mask, FlagScanAccessed)
			if got != want {
				t.Fatalf("step %d: TakeScanAccessedWord(%d, %#x) = %#x, ref %#x", step, w, mask, got, want)
			}
		case 12:
			w := rng.Intn(len(st.scanAccessed))
			mask := rng.Uint64()
			got := st.TakeScanWrittenWord(w, mask)
			want := ref.takeWord(w, mask, FlagScanWritten)
			if got != want {
				t.Fatalf("step %d: TakeScanWrittenWord(%d, %#x) = %#x, ref %#x", step, w, mask, got, want)
			}
		case 13:
			w := rng.Intn(len(st.scanAccessed))
			mask := rng.Uint64()
			got := st.ScanHeatNonzeroWord(w, mask)
			want := ref.nonzeroWord(w, mask, false)
			if got != want {
				t.Fatalf("step %d: ScanHeatNonzeroWord(%d, %#x) = %#x, ref %#x", step, w, mask, got, want)
			}
		case 14:
			w := rng.Intn(len(st.scanAccessed))
			mask := rng.Uint64()
			got := st.ScanWriteHeatNonzeroWord(w, mask)
			want := ref.nonzeroWord(w, mask, true)
			if got != want {
				t.Fatalf("step %d: ScanWriteHeatNonzeroWord(%d, %#x) = %#x, ref %#x", step, w, mask, got, want)
			}
		case 15:
			l := randLink()
			st.setLRUPrev(pfn, l)
			ref.pages[pfn].lruPrev = l
		case 16:
			l := randLink()
			st.setLRUNext(pfn, l)
			ref.pages[pfn].lruNext = l
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

// TestPageStoreFootprint pins the store's allocation per frame, so a
// column added back to the layout fails a test and not only a
// benchmark. Today's columns cost 31.875 B/page.
func TestPageStoreFootprint(t *testing.T) {
	const n = 1 << 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := NewPageStore(n)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(st)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / n; per > 32 {
		t.Fatalf("NewPageStore allocates %.2f B/page, want at most 32", per)
	}
}

// TestPageStoreRejectsOutOfDomain: the MFN and VPN columns are 32 bits
// wide, so a value that is neither nil nor below memsim.MaxFrames must
// panic instead of being truncated, and so must a span past the bound.
func TestPageStoreRejectsOutOfDomain(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	st := NewPageStore(8)
	for _, v := range []uint64{memsim.MaxFrames, 1<<32 - 1, 1 << 32, ^uint64(0) - 1} {
		mustPanic(fmt.Sprintf("SetMFN(%#x)", v), func() { st.SetMFN(3, memsim.MFN(v)) })
		mustPanic(fmt.Sprintf("SetVPN(%#x)", v), func() { st.SetVPN(3, VPN(v)) })
	}
	if !st.IsDefault(3) {
		t.Fatalf("rejected writes changed pfn 3: %+v", pageView(st, 3))
	}
	st.SetMFN(3, memsim.MaxFrames-1)
	st.SetVPN(3, memsim.MaxFrames-1)
	if st.MFN(3) != memsim.MaxFrames-1 || st.VPN(3) != memsim.MaxFrames-1 {
		t.Fatalf("largest storable values read back as MFN %d VPN %d", st.MFN(3), st.VPN(3))
	}
	st.SetMFN(3, memsim.NilMFN)
	st.SetVPN(3, NilVPN)
	if st.MFN(3) != memsim.NilMFN || st.VPN(3) != NilVPN {
		t.Fatalf("nil read back as MFN %#x VPN %#x", st.MFN(3), st.VPN(3))
	}
	mustPanic("NewPageStore(MaxFrames+1)", func() { NewPageStore(memsim.MaxFrames + 1) })
}
