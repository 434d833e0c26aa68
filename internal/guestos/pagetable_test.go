package guestos

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"testing"

	"heteroos/internal/snapshot"
)

// TestPageTableFootprint pins the page table's allocation: mapping the
// first 1,024 pages of a fresh VMA builds five tables (root, two
// interior levels, two leaves) and allocates at most 6 KiB, that is the
// two 2 KiB leaf blocks and the table records. Once every page is
// unmapped again, which frees all five tables, mapping them anew reuses
// the freed leaf blocks and allocates nothing.
func TestPageTableFootprint(t *testing.T) {
	os := mmOS(t)
	v, _ := os.AS.Mmap(2*ptFanout, KindAnon, NilFile)
	if v.Start%ptFanout != 0 {
		t.Fatalf("VMA starts at VPN %d, not on a leaf-table boundary", v.Start)
	}
	mapAll := func() uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := VPN(0); i < 2*ptFanout; i++ {
			os.AS.mapPage(v.Start+i, PFN(i))
		}
		runtime.ReadMemStats(&after)
		if got := os.AS.ptPages; got != 5 {
			t.Fatalf("ptPages = %d, want 5", got)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	if got := mapAll(); got > 6<<10 {
		t.Fatalf("mapping %d pages allocated %d B, want at most %d", 2*ptFanout, got, 6<<10)
	}
	for i := VPN(0); i < 2*ptFanout; i++ {
		os.AS.unmapPage(v.Start + i)
	}
	if os.AS.ptPages != 0 {
		t.Fatalf("ptPages = %d after unmapping every page", os.AS.ptPages)
	}
	if got := mapAll(); got != 0 {
		t.Fatalf("remapping %d pages allocated %d B, want 0", 2*ptFanout, got)
	}
}

// TestAddrSpaceCheckInvariantsCatchesFaults corrupts a mapped address
// space one way at a time and requires CheckInvariants to report each.
func TestAddrSpaceCheckInvariantsCatchesFaults(t *testing.T) {
	cases := []struct {
		name, want string
		corrupt    func(o *OS, vpn VPN, pfn PFN)
	}{
		{"reverse map", "reverse map names", func(o *OS, vpn VPN, pfn PFN) { o.store.SetVPN(pfn, vpn+1) }},
		{"leaf past store", "outside the store", func(o *OS, vpn VPN, _ PFN) {
			o.AS.tables[o.AS.walk(vpn, false)].ents[vpn&ptFanoutMask] = uint32(o.store.Len())
		}},
		{"live count", "live entries", func(o *OS, vpn VPN, _ PFN) { o.AS.tables[o.AS.walk(vpn, false)].live++ }},
		{"page count", "page-table pages counted", func(o *OS, _ VPN, _ PFN) { o.AS.ptPages++ }},
		{"order", "out of pre-order", func(o *OS, _ VPN, _ PFN) {
			o.AS.tables[0], o.AS.tables[1] = o.AS.tables[1], o.AS.tables[0]
		}},
		{"table frame", "not a page-table frame", func(o *OS, _ VPN, pfn PFN) { o.AS.tables[0].pfn = uint32(pfn) }},
		{"leaf cache", "leaf cache", func(o *OS, vpn VPN, _ PFN) { o.AS.leaf = 0 }},
	}
	for _, tc := range cases {
		os := mmOS(t)
		v, _ := os.AS.Mmap(4, KindAnon, NilFile)
		pfn, err := os.TouchVPN(v.Start, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.AS.CheckInvariants(); err != nil {
			t.Fatalf("%s: before corruption: %v", tc.name, err)
		}
		tc.corrupt(os, v.Start, pfn)
		if err := os.AS.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckInvariants = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// ptKey names a page table by level and base VPN.
type ptKey struct {
	level int
	base  VPN
}

// ptModel is a map-based reference page table. It tracks each table's
// live count and frame, and the frames tables gave back, most recent
// last: the node free stack hands those out again last-in first-out.
type ptModel struct {
	ents  map[VPN]uint32 // present (the frame) or ptSwapped32
	live  map[ptKey]int
	pfn   map[ptKey]PFN
	freed []PFN
	// reused counts tables built in a frame a freed table gave back.
	reused int
}

// mapPage mirrors AddrSpace.mapPage. Every table it allocates must sit
// in a's list holding the predicted frame: the last one freed if any,
// else one no live table holds.
func (m *ptModel) mapPage(t *testing.T, a *AddrSpace, vpn VPN, pfn PFN) {
	t.Helper()
	for level := ptLevels - 1; level >= 0; level-- {
		k := ptKey{level, ptBase(vpn, level)}
		if _, ok := m.live[k]; ok {
			continue
		}
		i, ok := a.find(vpn, level)
		if !ok {
			t.Fatalf("map VPN %d: level-%d table at VPN %d not allocated", vpn, level, k.base)
		}
		got := PFN(a.tables[i].pfn)
		if n := len(m.freed); n > 0 {
			if want := m.freed[n-1]; got != want {
				t.Fatalf("map VPN %d: level-%d table in frame %d, want the last freed frame %d", vpn, level, got, want)
			}
			m.freed = m.freed[:n-1]
			m.reused++
		} else {
			for other, f := range m.pfn {
				if f == got {
					t.Fatalf("map VPN %d: level-%d table in frame %d, held by %+v", vpn, level, got, other)
				}
			}
		}
		if level < ptLevels-1 {
			m.live[ptKey{level + 1, ptBase(vpn, level+1)}]++
		}
		m.live[k], m.pfn[k] = 0, got
	}
	if _, ok := m.ents[vpn]; !ok {
		m.live[ptKey{0, ptBase(vpn, 0)}]++
	}
	m.ents[vpn] = uint32(pfn)
}

// setLeaf mirrors AddrSpace.setLeaf, freeing emptied tables bottom-up.
func (m *ptModel) setLeaf(vpn VPN, entry uint32, reclaim bool) {
	leaf := ptKey{0, ptBase(vpn, 0)}
	_, was := m.ents[vpn]
	switch {
	case entry != ptAbsent32:
		if !was {
			m.live[leaf]++
		}
		m.ents[vpn] = entry
		return
	case was:
		m.live[leaf]--
		delete(m.ents, vpn)
	}
	if !reclaim || m.live[leaf] > 0 {
		return
	}
	for level := 0; level < ptLevels; level++ {
		k := ptKey{level, ptBase(vpn, level)}
		m.freed = append(m.freed, m.pfn[k])
		delete(m.live, k)
		delete(m.pfn, k)
		if level == ptLevels-1 {
			return
		}
		p := ptKey{level + 1, ptBase(vpn, level+1)}
		if m.live[p]--; m.live[p] > 0 {
			return
		}
	}
}

// check compares a with the model: every table's frame and live count,
// ptPages, and the lookup of each VPN in vpns.
func (m *ptModel) check(t *testing.T, step int, a *AddrSpace, vpns []VPN) {
	t.Helper()
	if a.ptPages != uint64(len(m.live)) || len(a.tables) != len(m.live) {
		t.Fatalf("step %d: ptPages %d, %d tables; model has %d", step, a.ptPages, len(a.tables), len(m.live))
	}
	for k, live := range m.live {
		i, ok := a.find(k.base, k.level)
		if !ok || PFN(a.tables[i].pfn) != m.pfn[k] || int(a.tables[i].live) != live {
			t.Fatalf("step %d: table %+v missing or differs from model (frame %d, live %d)", step, k, m.pfn[k], live)
		}
	}
	for _, vpn := range vpns {
		pfn, st := a.lookup(vpn)
		e, ok := m.ents[vpn]
		switch {
		case !ok && st != ptAbsent,
			ok && e == ptSwapped32 && st != ptSwapped,
			ok && e != ptSwapped32 && (st != ptPresent || pfn != PFN(e)):
			t.Fatalf("step %d: lookup(%d) = %d/%v, model entry %v/%v", step, vpn, pfn, st, e, ok)
		}
	}
}

// TestPageTableModel drives the page table through random maps,
// unmaps, swap-outs, swap-marker clears and munmaps next to ptModel.
// The VMAs sit on both sides of a 2^27-page spacer, so two level-2
// tables share the root. After every step the tables, their frames and
// live counts, ptPages and the step's lookups must match the model;
// since a freed frame comes back last-in first-out, matching frames
// also pins the order of the allocPTPage and freePTPage calls.
func TestPageTableModel(t *testing.T) {
	os := mmOS(t)
	a := os.AS
	m := &ptModel{ents: map[VPN]uint32{}, live: map[ptKey]int{}, pfn: map[ptKey]PFN{}}
	rng := rand.New(rand.NewPCG(1, 2))
	// Synthetic mapped frames come from node 0, which page tables (not
	// a fast kind under this placement) leave alone.
	var pool []PFN
	for pfn := PFN(os.nodes[0].MaxPages - 1); pfn > 0; pfn-- {
		pool = append(pool, pfn)
	}
	var vmas []*VMA
	mmap := func() {
		v, err := a.Mmap(uint64(1+rng.IntN(3*ptFanout)), KindPageCache, FileID(1))
		if err != nil {
			t.Fatal(err)
		}
		vmas = append(vmas, v)
	}
	for range 3 {
		mmap()
	}
	if _, err := a.Mmap(1<<27, KindPageCache, FileID(1)); err != nil {
		t.Fatal(err)
	}
	for range 3 {
		mmap()
	}
	release := func(vpn VPN) {
		pfn := PFN(m.ents[vpn])
		os.store.SetVPN(pfn, NilVPN)
		pool = append(pool, pfn)
	}
	vmaOf := func(vpn VPN) *VMA {
		v, _ := a.FindVMA(vpn)
		return v
	}
	for step := 0; step < 4000; step++ {
		if rng.IntN(60) == 0 {
			i := rng.IntN(len(vmas))
			v := vmas[i]
			var live []VPN
			for vpn, e := range m.ents {
				if v.Contains(vpn) {
					live = append(live, vpn)
					if e != ptSwapped32 {
						pool = append(pool, PFN(e))
					}
				}
			}
			slices.Sort(live)
			if err := a.Munmap(v.ID); err != nil {
				t.Fatal(err)
			}
			for _, vpn := range live {
				m.setLeaf(vpn, ptAbsent32, true)
			}
			vmas = slices.Delete(vmas, i, i+1)
			mmap()
			m.check(t, step, a, live)
			continue
		}
		v := vmas[rng.IntN(len(vmas))]
		vpn := v.Start + VPN(rng.Uint64N(v.Pages))
		e, ok := m.ents[vpn]
		switch {
		case !ok || e == ptSwapped32 && rng.IntN(2) == 0:
			pfn := pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			a.mapPage(vpn, pfn)
			os.store.SetVPN(pfn, vpn)
			v.Resident++
			m.mapPage(t, a, vpn, pfn)
		case e == ptSwapped32:
			a.clearSwapEntry(vpn)
			m.setLeaf(vpn, ptAbsent32, true)
		case rng.IntN(2) == 0:
			release(vpn)
			a.unmapPage(vpn)
			vmaOf(vpn).Resident--
			m.setLeaf(vpn, ptAbsent32, true)
		default:
			release(vpn)
			a.markSwapped(vpn)
			vmaOf(vpn).Resident--
			m.setLeaf(vpn, ptSwapped32, false)
		}
		probes := []VPN{vpn, vpn ^ 1, vpn + ptFanout, vpn - ptFanout}
		m.check(t, step, a, probes)
		if step%500 == 0 {
			all := make([]VPN, 0, len(m.ents))
			for vpn := range m.ents {
				all = append(all, vpn)
			}
			m.check(t, step, a, all)
			if err := a.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if m.reused < 100 || len(m.live) == 0 {
		t.Fatalf("%d tables reused a freed frame and %d remain: the run saw too little churn", m.reused, len(m.live))
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRefusesLeafOutsideStore checkpoints a guest with one
// mapped page whose leaf entry is then rewritten in the image, to the
// store's size and to 1<<32. Restore must refuse the entry that cannot
// be narrowed, and CheckInvariants the one past the store, before any
// touch reads a frame that does not exist.
func TestRestoreRefusesLeafOutsideStore(t *testing.T) {
	for _, pastStore := range []bool{true, false} {
		src := mmOS(t)
		bad := uint64(1) << 32
		if pastStore {
			bad = src.store.Len()
		}
		v, _ := src.AS.Mmap(4, KindAnon, NilFile)
		if _, err := src.TouchVPN(v.Start, 1, 0); err != nil {
			t.Fatal(err)
		}
		dst, err := restorePatched(t, src, v.Start, func(body []byte, at int) {
			binary.LittleEndian.PutUint64(body[at:], bad)
		})
		if err == nil {
			err = dst.CheckInvariants()
		}
		if err == nil || !strings.Contains(err.Error(), "MaxFrames") && !strings.Contains(err.Error(), "outside the store") {
			t.Fatalf("leaf %d: restore and CheckInvariants gave %v, want a refusal", bad, err)
		}
	}
}

// TestRestoreRefusesRepeatedTableIndex: a table's entry indexes must
// ascend, so an image listing one leaf index twice fails the restore
// instead of counting one entry twice.
func TestRestoreRefusesRepeatedTableIndex(t *testing.T) {
	src := mmOS(t)
	v, _ := src.AS.Mmap(4, KindAnon, NilFile)
	for i := VPN(0); i < 2; i++ {
		if _, err := src.TouchVPN(v.Start+i, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	_, err := restorePatched(t, src, v.Start+1, func(body []byte, at int) {
		// The entry's index precedes its frame; give it the first's.
		binary.LittleEndian.PutUint16(body[at-2:], uint16(v.Start&ptFanoutMask))
	})
	if err == nil || !strings.Contains(err.Error(), "out of range or order") {
		t.Fatalf("restore gave %v, want a refusal of the repeated index", err)
	}
}

// restorePatched checkpoints src with a marker frame, one whose eight
// little-endian bytes occur nowhere else in the image, planted in
// vpn's leaf entry. patch rewrites the image given the marker's offset,
// and the result is restored into a fresh guest.
func restorePatched(t *testing.T, src *OS, vpn VPN, patch func(body []byte, at int)) (*OS, error) {
	t.Helper()
	const marker = 0x7abc_def1
	src.AS.tables[src.AS.walk(vpn, false)].ents[vpn&ptFanoutMask] = marker
	body := guestImage(t, src)
	mark := binary.LittleEndian.AppendUint64(nil, marker)
	if n := bytes.Count(body, mark); n != 1 {
		t.Fatalf("marker frame occurs %d times in the image, want once", n)
	}
	patch(body, bytes.Index(body, mark))

	var buf bytes.Buffer
	w, _ := snapshot.NewWriter(&buf)
	if err := w.State("guestos", func(c *snapshot.Codec) error {
		for i := range body {
			c.U8(&body[i])
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := snapshot.Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	dst := mmOS(t)
	return dst, r.State("guestos", func(c *snapshot.Codec) error { return dst.SnapshotState(c, nil) })
}

// guestImage returns the body of src's "guestos" checkpoint section.
func guestImage(t *testing.T, src *OS) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, _ := snapshot.NewWriter(&buf)
	if err := w.State("guestos", func(c *snapshot.Codec) error { return src.SnapshotState(c, nil) }); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := snapshot.Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := r.Raw("guestos")
	return bytes.Clone(body)
}
