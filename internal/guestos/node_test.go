package guestos

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"heteroos/internal/memsim"
)

// allocOrderPins is the sha256 of every frame number allocOrderTrace
// returns, in order, per guest shape. Any change to which frame the
// allocator hands back or a deflate releases (stack order, refill or
// drain batch, watermark, buddy split order) moves a pin. The order in
// which a drain frees frames into the buddy allocator is not
// observable: coalescing yields the same free blocks either way.
var allocOrderPins = map[string]string{
	"aware":       "509ca0f49034514400f8276d1023355a0b9d7d0e0e6c7fec194b094a2d1d4a81",
	"transparent": "e69d06471f32305caaf5ec94ae0a0e71969eb57137b321021a85731f48b319bb",
}

// allocOrderTrace drives a seeded mix of page allocations of several
// kinds, frees, balloon deflates and on-demand population through o
// and returns the frame numbers it saw, in order: each allocated frame
// (NilPFN on failure) and each frame a deflate released.
func allocOrderTrace(t *testing.T, o *OS, seed int64) []PFN {
	t.Helper()
	kinds := []PageKind{KindAnon, KindPageCache, KindSlab, KindNetBuf, KindPageTable}
	rng := rand.New(rand.NewSource(seed))
	var held, trace []PFN
	for step := 0; step < 4000; step++ {
		// Alternate alloc-heavy and free-heavy phases so the mix both
		// exhausts the spans and drains the free stacks.
		allocPct, freePct := 80, 97
		if step/400%2 == 1 {
			allocPct, freePct = 20, 88
		}
		switch r := rng.Intn(100); {
		case r < allocPct:
			pfn, ok := o.allocPage(kinds[rng.Intn(len(kinds))])
			if !ok {
				pfn = NilPFN
			} else {
				held = append(held, pfn)
			}
			trace = append(trace, pfn)
		case r < freePct:
			if len(held) == 0 {
				continue
			}
			i := rng.Intn(len(held))
			o.freePage(held[i])
			held[i] = held[len(held)-1]
			held = held[:len(held)-1]
		default:
			idx := rng.Intn(len(o.nodes))
			got := o.releaseFreeFrames(idx, uint64(1+rng.Intn(24)))
			slots := o.unpopulated[idx]
			for _, s := range slots[uint64(len(slots))-got:] {
				trace = append(trace, PFN(s))
			}
		}
		if step%500 == 0 {
			if err := o.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return trace
}

// TestAllocationOrderPinned pins the exact frame sequence the guest
// allocator returns on an aware two-node guest and a transparent
// one-node guest, both booted below their spans so that allocation
// also populates on demand.
func TestAllocationOrderPinned(t *testing.T) {
	aware, _ := testOS(t, heapIOSlabODPlacement(), 192, 448, 32, 96)
	src := newFakeSource(512, 1536)
	transparent, err := New(Config{
		Aware:        false,
		FastMaxPages: 128, SlowMaxPages: 320,
		BootFastPages: 32, BootSlowPages: 64,
		Placement: PlacementConfig{Name: "VMM-exclusive"},
		Source:    src,
		TierOf:    src.m.TierOf,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, o := range map[string]*OS{"aware": aware, "transparent": transparent} {
		trace := allocOrderTrace(t, o, 11)
		h := sha256.New()
		var misses int
		for _, pfn := range trace {
			if pfn == NilPFN {
				misses++
			}
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(pfn)))
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != allocOrderPins[name] {
			t.Errorf("%s: allocation order sha256 %s (%d frames, %d misses), pinned %s",
				name, got, len(trace), misses, allocOrderPins[name])
		}
	}
}

// stackNode is a node over [0,+size) with its first populated frames
// handed to the buddy allocator.
func stackNode(size, populated uint64) *Node {
	n := newNode(memsim.FastMem, 0, size)
	n.addPopulated(0, populated)
	return n
}

func TestNodeStackRefillsInBatches(t *testing.T) {
	n := stackNode(128, 128)
	// One refill of 16 frames from the buddy's low end; the stack pops
	// the last frame refilled first.
	for want := PFN(15); ; want-- {
		pfn, ok := n.allocFrame()
		if !ok || pfn != want {
			t.Fatalf("alloc = %d, %v; want %d", pfn, ok, want)
		}
		if len(n.free) != int(want) || n.Buddy.FreePages() != 112 {
			t.Fatalf("after alloc %d: stack %d, buddy %d; want %d, 112", pfn, len(n.free), n.Buddy.FreePages(), want)
		}
		if want == 0 {
			break
		}
	}
	if pfn, _ := n.allocFrame(); pfn != 31 || n.Buddy.FreePages() != 96 {
		t.Fatalf("second refill: alloc %d, buddy %d; want 31, 96", pfn, n.Buddy.FreePages())
	}
}

func TestNodeStackDrainsAboveWatermark(t *testing.T) {
	n := stackNode(256, 0)
	for i := PFN(0); i <= stackHigh; i++ {
		n.freeFrame(100 + i)
	}
	// Crossing the watermark of 64 drains the top 16 frames.
	if len(n.free) != stackHigh+1-stackBatch || n.Buddy.FreePages() != stackBatch {
		t.Fatalf("stack %d, buddy %d; want %d, %d", len(n.free), n.Buddy.FreePages(), stackHigh+1-stackBatch, stackBatch)
	}
	for i := PFN(0); i <= stackHigh; i++ {
		if drained := i > stackHigh-stackBatch; n.Buddy.IsFree(uint64(100+i)) != drained {
			t.Fatalf("frame %d: in buddy = %v, want %v", 100+i, !drained, drained)
		}
	}
}

func TestNodeStackMissWhenBuddyDry(t *testing.T) {
	n := stackNode(64, 3)
	for i := 0; i < 3; i++ {
		if _, ok := n.allocFrame(); !ok {
			t.Fatalf("alloc %d failed early", i)
		}
	}
	if pfn, ok := n.allocFrame(); ok {
		t.Fatalf("alloc %d succeeded with the buddy allocator dry", pfn)
	}
	if len(n.free) != 0 || n.FreePages() != 0 {
		t.Fatalf("stack %d, free %d after exhaustion", len(n.free), n.FreePages())
	}
}

// TestNodeStackLIFORoundTrip: frames come back last-freed first, none
// is handed out twice and none is lost.
func TestNodeStackLIFORoundTrip(t *testing.T) {
	n := stackNode(128, 64)
	seen := map[PFN]bool{}
	var held []PFN
	for i := 0; i < 40; i++ {
		pfn, ok := n.allocFrame()
		if !ok || seen[pfn] {
			t.Fatalf("alloc %d: frame %d, ok %v (already held: %v)", i, pfn, ok, seen[pfn])
		}
		seen[pfn] = true
		held = append(held, pfn)
	}
	for _, pfn := range held {
		n.freeFrame(pfn)
	}
	for i := len(held) - 1; i >= len(held)-5; i-- {
		if pfn, _ := n.allocFrame(); pfn != held[i] {
			t.Fatalf("alloc after frees = %d, want %d, freed %d frees ago", pfn, held[i], len(held)-i)
		}
	}
	for _, pfn := range held[len(held)-5:] {
		n.freeFrame(pfn)
	}
	if n.FreePages() != 64 {
		t.Fatalf("free = %d, want 64", n.FreePages())
	}
	if err := n.Buddy.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestNodeStackFlushOrderOnReserve: a balloon deflate takes buddy
// frames first and drains the stack into the buddy allocator only when
// those fall short, leaving it empty.
func TestNodeStackFlushOrderOnReserve(t *testing.T) {
	n := stackNode(64, 64)
	for i := 0; i < 20; i++ {
		n.allocFrame() // two refills take frames 0-31; 16-27 stay stacked
	}
	for _, p := range []PFN{3, 1, 2} {
		n.freeFrame(p) // stack bottom to top: 16..27, 3, 1, 2
	}
	if got := n.reserveFree(16); len(got) != 16 || got[0] != 32 || got[15] != 47 || len(n.free) != 15 {
		t.Fatalf("reserve 16 = %v with stack %v; want 32..47 from the buddy, stack untouched", got, n.free)
	}
	// The buddy holds 16 frames; the other 4 come from the drained stack,
	// lowest-addressed smallest block first, as the buddy reserves them.
	got := n.reserveFree(20)
	want := []PFN{48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 1, 2, 3, 24}
	if !slices.Equal(got, want) || len(n.free) != 0 {
		t.Fatalf("reserve 20 = %v with stack %v; want %v and an empty stack", got, n.free, want)
	}
	if n.Populated() != 64-16-20 || n.FreePages() != 11 {
		t.Fatalf("populated %d, free %d after reserves; want 28, 11", n.Populated(), n.FreePages())
	}
}

// TestNodeStacksIndependent: each node's stack only ever holds frames
// of its own span, however allocations and frees interleave.
func TestNodeStacksIndependent(t *testing.T) {
	o, _ := testOS(t, heapODPlacement(), 256, 512, 128, 256)
	var held []PFN
	for i := 0; i < 60; i++ {
		kind := KindAnon // FastMem under Heap-OD
		if i%3 == 0 {
			kind = KindSlab // SlowMem
		}
		pfn, ok := o.allocPage(kind)
		if !ok {
			t.Fatal("alloc failed")
		}
		held = append(held, pfn)
	}
	for _, pfn := range held {
		o.freePage(pfn)
	}
	for i, n := range o.nodes {
		if len(n.free) == 0 {
			t.Fatalf("node %d stack empty", i)
		}
		for _, f := range n.free {
			if !n.Contains(PFN(f)) {
				t.Fatalf("node %d stack holds frame %d of another node", i, f)
			}
		}
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// buddyFreeFrame returns a frame of node idx inside a buddy free block.
func buddyFreeFrame(t *testing.T, o *OS, idx int) PFN {
	t.Helper()
	n := o.nodes[idx]
	for p := n.Base; p < n.Base+PFN(n.MaxPages); p++ {
		if n.Buddy.IsFree(uint64(p)) {
			return p
		}
	}
	t.Fatalf("node %d has no buddy free frame", idx)
	return NilPFN
}

// TestCheckInvariantsCatchesStackCorruption corrupts node 0's free
// stack without changing any frame count, which the count comparisons
// alone cannot see, and requires CheckInvariants to name each fault.
func TestCheckInvariantsCatchesStackCorruption(t *testing.T) {
	cases := []struct {
		name, want string
		corrupt    func(o *OS, used PFN)
	}{
		{"buddy free", "also in a buddy free block", func(o *OS, _ PFN) {
			o.nodes[0].free[0] = uint32(buddyFreeFrame(t, o, 0))
		}},
		{"in use", "is in use", func(o *OS, used PFN) { o.nodes[0].free[0] = uint32(used) }},
		{"duplicate", "twice", func(o *OS, _ PFN) { o.nodes[0].free[0] = o.nodes[0].free[1] }},
		{"foreign", "outside span", func(o *OS, _ PFN) { o.nodes[0].free[0] = uint32(o.nodes[1].Base) }},
	}
	for _, tc := range cases {
		o, _ := testOS(t, heapODPlacement(), 1024, 4096, 256, 1024)
		used, ok := o.allocPage(KindAnon)
		if !ok || len(o.nodes[0].free) < 2 {
			t.Fatalf("setup: alloc ok %v, stack %d", ok, len(o.nodes[0].free))
		}
		if err := o.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		tc.corrupt(o, used)
		if err := o.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckInvariants = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
