package vmm

import (
	"fmt"
	"math/rand"
	"testing"

	"heteroos/internal/guestos"
	"heteroos/internal/memsim"
)

// refScanner is the per-page reference for the scanner's word-at-a-time
// passes. It visits one page at a time, test-and-clears each bit with a
// one-bit word take, and folds every visited page's heat, whether or not
// that page has state to fold. It shares only the scanner's knobs and
// cost formula, never its scan code.
type refScanner struct {
	*Scanner
	cursor     uint64
	trackedPos int
}

func (r *refScanner) sample(res *ScanResult, pfn guestos.PFN) {
	v := r.view
	take := func(word func(int, uint64) uint64) bool {
		return word(int(pfn>>6), 1<<(pfn&63)) != 0
	}
	h := v.ScanHeat(pfn) >> 1
	if take(v.TakeScanAccessedWord) {
		h += 4
		res.Referenced++
	}
	v.SetScanHeat(pfn, h)
	if r.TrackWrites {
		w := v.ScanWriteHeat(pfn) >> 1
		if take(v.TakeScanWrittenWord) {
			w += 4
		}
		v.SetScanWriteHeat(pfn, w)
	}
	res.Scanned++
}

func (r *refScanner) scanNext() ScanResult {
	var res ScanResult
	span := r.view.NumPFNs()
	n := min(uint64(r.BatchPages), span)
	for i := uint64(0); i < n; i++ {
		r.sample(&res, guestos.PFN(r.cursor))
		if r.cursor++; r.cursor >= span {
			r.cursor = 0
		}
	}
	res.CostNs = r.scanCost(res.Scanned)
	return res
}

func (r *refScanner) scanTracked(tracked []guestos.PFN) ScanResult {
	var res ScanResult
	n := len(tracked)
	if n == 0 {
		return res
	}
	limit := n
	if r.BatchPages > 0 && limit > r.BatchPages {
		limit = r.BatchPages
	}
	r.trackedPos %= n
	for i := 0; i < limit; i++ {
		r.sample(&res, tracked[(r.trackedPos+i)%n])
	}
	r.trackedPos = (r.trackedPos + limit) % n
	res.CostNs = r.scanCost(res.Scanned)
	return res
}

// scanGuest boots one aware guest with an on-demand anon placement. Its
// span (64 + 1000 PFNs) ends mid-word.
func scanGuest(t *testing.T) *guestos.OS {
	t.Helper()
	machine := newMachine(256, 1024)
	m := New(machine, StaticShare{})
	spec := VMSpec{ID: 1}
	spec.MaxPages[memsim.FastMem] = 256
	spec.MaxPages[memsim.SlowMem] = 1024
	vm, err := m.CreateVM(spec)
	if err != nil {
		t.Fatal(err)
	}
	pl := guestos.PlacementConfig{Name: "coord", OnDemand: true}
	pl.FastKinds[guestos.KindAnon] = true
	return bootGuest(t, m, vm, true, pl, 64, 1000, 32, 512)
}

// trackedVariant derives a tracked list from the guest's export: as is,
// shuffled, with entries repeated (adjacent and apart), or reversed
// with repeats, so word groups break on reorders and duplicates.
func trackedVariant(rng *rand.Rand, export []guestos.PFN) []guestos.PFN {
	list := append([]guestos.PFN(nil), export...)
	if len(list) == 0 {
		return list
	}
	switch rng.Intn(4) {
	case 1:
		rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	case 2:
		for i := 0; i < 16; i++ {
			k := rng.Intn(len(list))
			list = append(list[:k+1], list[k:]...)
			list = append(list, list[rng.Intn(len(list))])
		}
	case 3:
		for i, j := 0, len(list)-1; i < j; i, j = i+1, j-1 {
			list[i], list[j] = list[j], list[i]
		}
		list = append(list, list[:len(list)/3]...)
	}
	return list
}

// TestScanMatchesPerPageReference drives two identically booted guests
// through the same touches, scanning one with the Scanner and the other
// with the per-page reference. After every pass the ScanResults and
// every PFN's heat and write heat must agree. Batches are sized so full
// scans wrap the span end at unaligned positions, and tracked scans get
// lists that repeat and reorder PFNs.
func TestScanMatchesPerPageReference(t *testing.T) {
	for _, trackWrites := range []bool{false, true} {
		t.Run(fmt.Sprintf("writes=%v", trackWrites), func(t *testing.T) {
			a, b := scanGuest(t), scanGuest(t)
			sc := NewScanner(a, DefaultScanCosts())
			sc.TrackWrites = trackWrites
			refKnobs := NewScanner(b, DefaultScanCosts())
			refKnobs.TrackWrites = trackWrites
			ref := &refScanner{Scanner: refKnobs}

			var vmas [2]*guestos.VMA
			for i, g := range []*guestos.OS{a, b} {
				v, err := g.AS.Mmap(700, guestos.KindAnon, guestos.NilFile)
				if err != nil {
					t.Fatal(err)
				}
				vmas[i] = v
			}
			rng := rand.New(rand.NewSource(5))
			wrapped, repeated, referenced, wrote := false, false, false, false
			for step := 0; step < 120; step++ {
				// The same touches on both guests: a hot window and a
				// scattering of cold pages, some with stores.
				hot := rng.Intn(600)
				var touches [][3]uint64
				for i := 0; i < 40; i++ {
					off := uint64(hot + rng.Intn(100))
					if i%4 == 0 {
						off = uint64(rng.Intn(700))
					}
					touches = append(touches, [3]uint64{off, uint64(1 + rng.Intn(3)), uint64(rng.Intn(3))})
				}
				for i, g := range []*guestos.OS{a, b} {
					for _, tc := range touches {
						if _, err := g.TouchVPN(vmas[i].Start+guestos.VPN(tc[0]), tc[1], tc[2]); err != nil {
							t.Fatal(err)
						}
					}
				}

				batch := 1 + rng.Intn(400)
				sc.BatchPages, ref.BatchPages = batch, batch
				var got, want ScanResult
				if rng.Intn(2) == 0 {
					span := a.NumPFNs()
					wrapped = wrapped || ref.cursor+uint64(batch) > span
					got, want = sc.ScanNext(), ref.scanNext()
				} else {
					list := trackedVariant(rng, a.TrackingList())
					seen := map[guestos.PFN]bool{}
					for _, pfn := range list {
						repeated = repeated || seen[pfn]
						seen[pfn] = true
					}
					got, want = sc.ScanTracked(list), ref.scanTracked(list)
				}
				if got != want {
					t.Fatalf("step %d: scanner %+v, reference %+v", step, got, want)
				}
				referenced = referenced || got.Referenced > 0
				for pfn := guestos.PFN(0); pfn < guestos.PFN(a.NumPFNs()); pfn++ {
					if a.ScanHeat(pfn) != b.ScanHeat(pfn) || a.ScanWriteHeat(pfn) != b.ScanWriteHeat(pfn) {
						t.Fatalf("step %d: pfn %d heat %d/%d, reference %d/%d", step, pfn,
							a.ScanHeat(pfn), a.ScanWriteHeat(pfn), b.ScanHeat(pfn), b.ScanWriteHeat(pfn))
					}
					wrote = wrote || a.ScanWriteHeat(pfn) > 0
				}
			}
			if !wrapped || !repeated || !referenced || wrote != trackWrites {
				t.Fatalf("coverage: wrapped=%v repeated=%v referenced=%v wrote=%v",
					wrapped, repeated, referenced, wrote)
			}
			if a.NumPFNs()%64 == 0 {
				t.Fatalf("span %d ends on a word boundary", a.NumPFNs())
			}
		})
	}
}
