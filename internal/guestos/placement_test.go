package guestos

import (
	"testing"

	"heteroos/internal/memsim"
)

func TestPlacementWantsFast(t *testing.T) {
	var pl PlacementConfig
	pl.FastKinds[KindAnon] = true
	if !pl.WantsFast(KindAnon) || pl.WantsFast(KindPageCache) {
		t.Fatal("FastKinds routing wrong")
	}
	pl.NUMAPreferred = true
	if !pl.WantsFast(KindPageCache) {
		t.Fatal("NUMA-preferred must prefer FastMem for everything")
	}
}

func TestAllocStatsAccounting(t *testing.T) {
	var s AllocStats
	s.Record(KindAnon, true, memsim.FastMem)
	s.Record(KindAnon, true, memsim.SlowMem)
	s.Record(KindAnon, true, memsim.SlowMem)
	s.Record(KindPageCache, false, memsim.SlowMem)

	if s.Total[KindAnon] != 3 || s.Total[KindPageCache] != 1 {
		t.Fatal("totals wrong")
	}
	if got := s.MissRatio(KindAnon); got != 2.0/3.0 {
		t.Fatalf("anon miss ratio = %v", got)
	}
	if got := s.MissRatio(KindPageCache); got != 0 {
		t.Fatalf("cache miss ratio = %v (no fast requests)", got)
	}
	if got := s.OverallMissRatio(); got != 2.0/3.0 {
		t.Fatalf("overall = %v", got)
	}
	kind, ratio := s.MaxMissKind()
	if kind != KindAnon || ratio != 2.0/3.0 {
		t.Fatalf("max miss = %v/%v", kind, ratio)
	}
	s.Reset()
	if s.Total[KindAnon] != 0 || s.OverallMissRatio() != 0 {
		t.Fatal("reset failed")
	}
	if k, r := s.MaxMissKind(); k != KindFree || r != 0 {
		t.Fatalf("empty MaxMissKind = %v/%v", k, r)
	}
}

func TestNodeWatermarksAndAccounting(t *testing.T) {
	os, _ := testOS(t, heteroLRUPlacement(), 1024, 4096, 512, 1024)
	fast := os.Node(memsim.FastMem)
	if fast.LowWatermark == 0 || fast.HighWatermark <= fast.LowWatermark {
		t.Fatalf("watermarks unset: %d/%d", fast.LowWatermark, fast.HighWatermark)
	}
	if fast.BelowLow() {
		t.Fatal("freshly booted node should not be under pressure")
	}
	if fast.ReclaimTarget() != 0 {
		t.Fatal("no reclaim target expected with ample free pages")
	}
	if !fast.Contains(0) || fast.Contains(PFN(fast.MaxPages)) {
		t.Fatal("Contains span wrong")
	}
	if fast.UsedPages() != 0 {
		t.Fatalf("used = %d on fresh node", fast.UsedPages())
	}
	if fast.String() == "" {
		t.Fatal("String empty")
	}
	// Drain the node: pressure indicators flip.
	for {
		if _, ok := os.allocPage(KindAnon); !ok {
			break
		}
		if os.Node(memsim.FastMem).FreePages() == 0 {
			break
		}
	}
	if !fast.BelowLow() {
		t.Fatal("exhausted node must be below the low watermark")
	}
	if fast.ReclaimTarget() == 0 {
		t.Fatal("exhausted node must want reclaim")
	}
}

func TestDemandPrioritisationWindow(t *testing.T) {
	// With HeteroOS-LRU, reclaim runs on behalf of the kind with the
	// highest miss ratio; other kinds spill without triggering it.
	os, _ := testOS(t, heteroLRUPlacement(), 256, 4096, 256, 2048)
	// Saturate FastMem with heap pages so subsequent allocations miss.
	vma, _ := os.AS.Mmap(512, KindAnon, NilFile)
	for i := 0; i < 512; i++ {
		os.TouchVPN(vma.Start+VPN(i), 1, 1)
	}
	if os.Window.Requests[KindAnon] == 0 {
		t.Fatal("window never recorded heap demand")
	}
	kind, ratio := os.Window.MaxMissKind()
	_ = kind
	if ratio < 0 || ratio > 1 {
		t.Fatalf("ratio out of range: %v", ratio)
	}
	if err := os.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestThrottleStateTelemetry(t *testing.T) {
	os, _ := testOS(t, heteroLRUPlacement(), 256, 4096, 256, 2048)
	ar, as, rr, rs, pr := os.admitRate, os.admitSeen, os.demoteRegret, os.demoteSeen, os.promoteRate
	if ar != 1 || pr != 1 {
		t.Fatal("EWMAs must start optimistic")
	}
	if as != 0 || rs != 0 || rr != 0 {
		t.Fatal("counters must start empty")
	}
	// Drive allocations + epochs so samples mature.
	vma, _ := os.AS.Mmap(700, KindAnon, NilFile)
	for e := 0; e < 8; e++ {
		for i := e * 80; i < (e+1)*80; i++ {
			os.TouchVPN(vma.Start+VPN(i), 2, 1)
		}
		os.EndEpoch()
	}
	if os.admitSeen == 0 {
		t.Fatal("admission samples never matured")
	}
}

func TestSlabChurnPageEquivalents(t *testing.T) {
	os, _ := testOS(t, heapIOSlabODPlacement(), 1024, 4096, 512, 1024)
	os.NetRecv(10, 4096)
	refs := os.SlabMetaAlloc(SlabFSMeta, 8)
	os.SlabMetaFree(refs)
	netbuf, slabPages := os.SlabChurnPageEquivalents()
	if netbuf <= 0 {
		t.Fatal("skbuff churn not counted")
	}
	if slabPages < 8 { // 8 x 4096-byte objects = 8 page equivalents
		t.Fatalf("fs-meta churn = %v, want >= 8", slabPages)
	}
}
