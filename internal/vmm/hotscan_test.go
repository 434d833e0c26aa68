package vmm

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"heteroos/internal/guestos"
	"heteroos/internal/memsim"
)

// refScanner is the per-page reference for the scanner's word-at-a-time
// passes. It visits one page at a time, test-and-clears each bit with a
// one-bit word take, and folds every visited page's heat, whether or not
// that page has state to fold, one page at a time: heat through the
// guest's SetScanHeat, write heat in the page store, telling the heat
// index of each change. It shares only the scanner's knobs and cost
// formula, never its scan code.
type refScanner struct {
	*Scanner
	os         *guestos.OS
	cursor     uint64
	trackedPos int
}

func (r *refScanner) sample(res *ScanResult, pfn guestos.PFN) {
	v := r.os
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
		old := v.ScanWriteHeat(pfn)
		w := old >> 1
		if take(v.TakeScanWrittenWord) {
			w += 4
		}
		if w != old {
			v.Store().SetScanWriteHeat(pfn, w)
			perPageIndexer{r.index}.PagesHeatChanged(int(pfn>>6), 1<<(pfn&63))
		}
	}
	res.Scanned++
}

// perPageIndexer is the per-page reference for the heat index's grouped
// word moves: it re-files each changed page on its own, with one remove
// and one insert, as the index did before it grouped a word's moves.
type perPageIndexer struct{ *HeatIndex }

func (x perPageIndexer) PagesHeatChanged(w int, changed uint64) {
	for ; changed != 0; changed &= changed - 1 {
		pfn := guestos.PFN(w<<6 + bits.TrailingZeros64(changed))
		n := &x.nodes[pfn]
		if n.flags&heatInIndex == 0 {
			continue
		}
		if b := x.scanner.score(pfn); b != n.bucket {
			tier := n.tier
			x.remove(pfn)
			x.insert(pfn, tier, b)
		}
	}
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
func scanGuest(t *testing.T) (*guestos.OS, *memsim.Machine) {
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
	pl := guestos.PlacementConfig{Name: "coord"}
	pl.FastKinds[guestos.KindAnon] = true
	return bootGuest(t, m, vm, true, pl, 64, 1000, 32, 512), machine
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
// with the per-page reference. Each guest has a heat index attached: the
// scanner's hears a word of heat changes per call and moves pages in
// groups, the reference's re-files page by page. After every pass the
// ScanResults, every PFN's heat and write heat, and the two indexes'
// summaries must agree, and both indexes and both guests must pass
// their invariant checks, which include each node's reclaim lap memo.
// Batches are sized so full scans wrap the span end at unaligned
// positions, and tracked scans get lists that repeat and reorder PFNs.
// Hot pages are deactivated and the fast node is ballooned down, so
// reclaim laps over it end all-protected and set a memo, and then the
// hot window moves on, so inactive pages cool through the protection
// threshold while that memo is live.
func TestScanMatchesPerPageReference(t *testing.T) {
	for _, trackWrites := range []bool{false, true} {
		t.Run(fmt.Sprintf("writes=%v", trackWrites), func(t *testing.T) {
			a, ma := scanGuest(t)
			b, mb := scanGuest(t)
			sc := NewScanner(a, DefaultScanCosts())
			sc.TrackWrites = trackWrites
			refKnobs := NewScanner(b, DefaultScanCosts())
			refKnobs.TrackWrites = trackWrites
			if trackWrites {
				// Write heat moves pages between buckets too.
				sc.WriteBoost, refKnobs.WriteBoost = 1.5, 1.5
			}
			a.SetPageIndexer(NewHeatIndex(sc, ma.TierOf))
			b.SetPageIndexer(perPageIndexer{NewHeatIndex(refKnobs, mb.TierOf)})
			ref := &refScanner{Scanner: refKnobs, os: b}

			var vmas [2]*guestos.VMA
			for i, g := range []*guestos.OS{a, b} {
				v, err := g.AS.Mmap(700, guestos.KindAnon, guestos.NilFile)
				if err != nil {
					t.Fatal(err)
				}
				vmas[i] = v
			}
			rng := rand.New(rand.NewSource(5))
			wrapped, repeated, referenced, wrote, cooled := false, false, false, false, false
			hot := 0
			for step := 0; step < 160; step++ {
				// The same touches on both guests: a hot window that
				// stays put for a while and then jumps, and a
				// scattering of cold pages, some with stores.
				if step%16 == 0 {
					hot = rng.Intn(600)
				}
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

				// Deactivate the decisively hot active pages, and every
				// fourth step balloon the fast node down as far as it
				// goes: its reclaim evicts the unprotected inactive
				// pages until a lap finds only protected ones, which
				// sets a lap memo for the passes below to recheck.
				for _, g := range []*guestos.OS{a, b} {
					for pfn := guestos.PFN(0); pfn < guestos.PFN(g.NumPFNs()); pfn++ {
						if g.ScanHeat(pfn) >= 6 && g.Store().Has(pfn, guestos.FlagActive) {
							g.LRUOf(g.TierOfPage(pfn)).Deactivate(pfn)
						}
					}
					if step%4 == 3 {
						g.BalloonTarget(memsim.FastMem, 0)
					}
				}

				// Inactive LRU pages at the protection threshold before
				// the pass, to see which of them cool through it.
				st := a.Store()
				var atSix []guestos.PFN
				for pfn := guestos.PFN(0); pfn < guestos.PFN(a.NumPFNs()); pfn++ {
					if a.ScanHeat(pfn) >= 6 && st.Has(pfn, guestos.FlagOnLRU) && !st.Has(pfn, guestos.FlagActive) {
						atSix = append(atSix, pfn)
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
				for _, pfn := range atSix {
					cooled = cooled || a.ScanHeat(pfn) < 6
				}
				for pfn := guestos.PFN(0); pfn < guestos.PFN(a.NumPFNs()); pfn++ {
					if a.ScanHeat(pfn) != b.ScanHeat(pfn) || a.ScanWriteHeat(pfn) != b.ScanWriteHeat(pfn) {
						t.Fatalf("step %d: pfn %d heat %d/%d, reference %d/%d", step, pfn,
							a.ScanHeat(pfn), a.ScanWriteHeat(pfn), b.ScanHeat(pfn), b.ScanWriteHeat(pfn))
					}
					wrote = wrote || a.ScanWriteHeat(pfn) > 0
				}
				if sa, sb := sc.index.Summary(), refKnobs.index.Summary(); sa != sb {
					t.Fatalf("step %d: index summary %+v, reference %+v", step, sa, sb)
				}
				for _, c := range []struct {
					name  string
					check func() error
				}{
					{"index", sc.index.CheckInvariants}, {"reference index", refKnobs.index.CheckInvariants},
					{"guest", a.CheckInvariants}, {"reference guest", b.CheckInvariants},
				} {
					if err := c.check(); err != nil {
						t.Fatalf("step %d: %s: %v", step, c.name, err)
					}
				}
			}
			assertRankingsMatch(t, sc, ma, "end")
			if !wrapped || !repeated || !referenced || !cooled || wrote != trackWrites {
				t.Fatalf("coverage: wrapped=%v repeated=%v referenced=%v cooled=%v wrote=%v",
					wrapped, repeated, referenced, cooled, wrote)
			}
			if a.NumPFNs()%64 == 0 {
				t.Fatalf("span %d ends on a word boundary", a.NumPFNs())
			}
		})
	}
}
