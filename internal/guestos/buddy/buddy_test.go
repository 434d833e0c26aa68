package buddy

import (
	"bytes"
	"container/heap"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"heteroos/internal/snapshot"
)

func newFull(base, size uint64) *Allocator {
	a := New(base, size)
	a.AddRange(base, size)
	return a
}

func TestAllocFreeSingle(t *testing.T) {
	a := newFull(0, 1024)
	if a.FreePages() != 1024 {
		t.Fatalf("free = %d", a.FreePages())
	}
	p, err := a.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if a.FreePages() != 1023 {
		t.Fatalf("free = %d after alloc", a.FreePages())
	}
	a.Free(p)
	if a.FreePages() != 1024 {
		t.Fatalf("free = %d after free", a.FreePages())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAddressOrdered(t *testing.T) {
	a := newFull(100, 256)
	p1, _ := a.Alloc()
	p2, _ := a.Alloc()
	if p1 != 100 || p2 != 101 {
		t.Fatalf("not address ordered: %d, %d", p1, p2)
	}
}

func TestOrderAllocAlignment(t *testing.T) {
	// A single free block of each order splits into aligned halves: the
	// base frame is handed out and one free block of every lower order j
	// starts at base+2^j.
	for order := 0; order <= MaxOrder; order++ {
		a := New(0, 1<<MaxOrder)
		base := uint64(1) << MaxOrder >> 1
		if order == MaxOrder {
			base = 0
		}
		a.AddRange(base, uint64(1)<<order)
		if a.free[base] != uint8(order+1) {
			t.Fatalf("order %d: AddRange left %d at %d, want one free block", order, a.free[base], base)
		}
		p, err := a.Alloc()
		if err != nil || p != base {
			t.Fatalf("order %d: Alloc = %d, %v; want %d", order, p, err, base)
		}
		if a.IsFree(p) || a.IsFree(base+uint64(1)<<order) {
			t.Fatalf("order %d: IsFree reports an allocated or unpopulated frame", order)
		}
		for j := 0; j < order; j++ {
			if half := base + uint64(1)<<j; a.free[half] != uint8(j+1) {
				t.Fatalf("order %d: split left %d at %d, want a free order-%d block", order, a.free[half], half, j)
			}
			// IsFree finds the block from its last frame too.
			if last := base + uint64(1)<<(j+1) - 1; !a.IsFree(last) {
				t.Fatalf("order %d: IsFree(%d) = false inside a free order-%d block", order, last, j)
			}
		}
		a.Free(p)
		if a.FreePages() != uint64(1)<<order || a.free[base] != uint8(order+1) {
			t.Fatalf("order %d: free did not reassemble the block", order)
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSplitAndCoalesce(t *testing.T) {
	a := newFull(0, 16)
	// Allocate all 16 pages singly, splitting the order-4 block.
	var pages []uint64
	for i := 0; i < 16; i++ {
		p, err := a.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
	}
	if _, err := a.Alloc(); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("want ErrNoMemory, got %v", err)
	}
	// Free all: coalescing must reassemble one order-4 block.
	for _, p := range pages {
		a.Free(p)
	}
	if a.free[0] != 5 || a.FreePages() != 16 {
		t.Fatalf("free[0] = %d, free pages %d; want one order-4 block", a.free[0], a.FreePages())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := newFull(0, 8)
	p, _ := a.Alloc()
	a.Free(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.Free(p)
}

func TestFreeOutsideSpanPanics(t *testing.T) {
	a := newFull(10, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-span free did not panic")
		}
	}()
	a.Free(5)
}

// TestAddRangeHeapEntriesBounded populates 65,536 frames as one run and
// as runs of ragged length and alignment, and requires the order heaps
// to hold no more entries than there are free blocks plus a few per
// run: an entry per populated frame would leave tens of thousands of
// stale entries for the first allocations to pop through.
func TestAddRangeHeapEntriesBounded(t *testing.T) {
	const frames = 65536
	for _, runs := range [][]uint64{{frames}, {3, 1021, 40000, frames - 41024}} {
		a := New(0, frames)
		var pfn uint64
		for _, n := range runs {
			a.AddRange(pfn, n)
			pfn += n
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		blocks, entries := 0, 0
		for _, v := range a.free {
			if v != 0 {
				blocks++
			}
		}
		for _, h := range a.heaps {
			entries += len(h)
		}
		if limit := blocks + 2*(MaxOrder+1)*len(runs); entries > limit {
			t.Fatalf("runs %v: %d heap entries for %d free blocks, want at most %d", runs, entries, blocks, limit)
		}
	}
}

// TestAddRangeRejectsBadRanges checks AddRange's span and double-free
// panics, raised before any frame is added.
func TestAddRangeRejectsBadRanges(t *testing.T) {
	for _, tc := range []struct {
		name     string
		pfn, n   uint64
		contains string
	}{
		{"below span", 5, 10, "outside span"},
		{"past span", 100, 20, "outside span"},
		{"free frame", 40, 8, "double free of block 44"},
	} {
		a := New(10, 100)
		a.AddRange(44, 1)
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, tc.contains) {
					t.Fatalf("%s: AddRange(%d, %d) panicked with %v, want %q", tc.name, tc.pfn, tc.n, r, tc.contains)
				}
			}()
			a.AddRange(tc.pfn, tc.n)
		}()
		if a.FreePages() != 1 {
			t.Fatalf("%s: %d free pages after a refused AddRange, want 1", tc.name, a.FreePages())
		}
	}
}

func TestPartialPopulation(t *testing.T) {
	a := New(0, 1024)
	if _, err := a.Alloc(); !errors.Is(err, ErrNoMemory) {
		t.Fatal("unpopulated allocator should be empty")
	}
	a.AddRange(512, 64)
	if a.FreePages() != 64 {
		t.Fatalf("free = %d", a.FreePages())
	}
	p, err := a.Alloc()
	if err != nil || p < 512 || p >= 576 {
		t.Fatalf("allocated %d from wrong range, err=%v", p, err)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReserve(t *testing.T) {
	a := newFull(0, 128)
	got := a.Reserve(50)
	if len(got) != 50 {
		t.Fatalf("reserved %d, want 50", len(got))
	}
	if a.FreePages() != 78 {
		t.Fatalf("free = %d, want 78", a.FreePages())
	}
	seen := map[uint64]bool{}
	for _, p := range got {
		if seen[p] {
			t.Fatalf("duplicate frame %d", p)
		}
		seen[p] = true
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Reserve more than available: returns what it can.
	rest := a.Reserve(1000)
	if len(rest) != 78 {
		t.Fatalf("drained %d, want 78", len(rest))
	}
	if a.FreePages() != 0 {
		t.Fatal("allocator should be empty")
	}
}

func TestReserveReturnsToPool(t *testing.T) {
	a := newFull(0, 64)
	got := a.Reserve(3) // forces over-split of a larger block
	if len(got) != 3 {
		t.Fatalf("got %d", len(got))
	}
	if a.FreePages() != 61 {
		t.Fatalf("free = %d", a.FreePages())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFragmentationThenRecovery(t *testing.T) {
	a := newFull(0, 256)
	var odd []uint64
	var even []uint64
	for i := 0; i < 256; i++ {
		p, err := a.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			even = append(even, p)
		} else {
			odd = append(odd, p)
		}
	}
	for _, p := range odd {
		a.Free(p)
	}
	// Only order-0 blocks are free now.
	for rel, v := range a.free {
		if v > 1 {
			t.Fatalf("order-%d block at %d under full fragmentation", v-1, rel)
		}
	}
	for _, p := range even {
		a.Free(p)
	}
	// Everything coalesces back into one order-8 block.
	if a.free[0] != 9 {
		t.Fatalf("free[0] = %d, want an order-8 block", a.free[0])
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBuddyInvariantProperty(t *testing.T) {
	// Property: arbitrary alloc/free interleavings preserve invariants
	// and conserve frames.
	f := func(ops []uint16) bool {
		a := newFull(0, 512)
		var live []uint64
		for _, op := range ops {
			if op%2 == 0 || len(live) == 0 {
				if p, err := a.Alloc(); err == nil {
					live = append(live, p)
				}
			} else {
				i := int(op>>2) % len(live)
				a.Free(live[i])
				live = append(live[:i], live[i+1:]...)
			}
		}
		if a.FreePages()+uint64(len(live)) != 512 {
			return false
		}
		return a.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessors(t *testing.T) {
	a := New(7, 100)
	if a.Base() != 7 || a.Size() != 100 {
		t.Fatal("accessors wrong")
	}
}

// refHeap is orderHeap driven through container/heap, the sift order the
// typed push/pop must reproduce.
type refHeap []uint32

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(uint32)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func TestOrderHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var got orderHeap
	var want refHeap
	for op := 0; op < 20000; op++ {
		if len(got) > 0 && rng.Intn(5) < 2 {
			g, w := got.pop(), heap.Pop(&want).(uint32)
			if g != w {
				t.Fatalf("op %d: pop = %d, container/heap = %d", op, g, w)
			}
		} else {
			// A narrow value range forces duplicates, like stale entries;
			// every fifth push is near the top of the 32-bit range.
			x := uint32(rng.Intn(512))
			if rng.Intn(5) == 0 {
				x = ^uint32(0) - x
			}
			got.push(x)
			heap.Push(&want, x)
		}
		if !slices.Equal([]uint32(got), []uint32(want)) {
			t.Fatalf("op %d: layout %v, container/heap %v", op, got, want)
		}
	}
}

func TestAllocFreeZeroAlloc(t *testing.T) {
	a := newFull(0, 4096)
	// Warm the heaps to their steady-state capacity.
	for i := 0; i < 3; i++ {
		p, _ := a.Alloc()
		a.Free(p)
	}
	if n := testing.AllocsPerRun(100, func() {
		p, err := a.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		a.Free(p)
	}); n != 0 {
		t.Fatalf("Alloc/Free allocated %.1f times per run", n)
	}
}

// mapAllocator is the allocator as it was before the dense free array:
// free blocks in a map from base to order. It is the differential
// oracle for the array-backed Allocator.
type mapAllocator struct {
	base, size uint64
	freeOrder  map[uint64]int
	heaps      [MaxOrder + 1]orderHeap
	freePages  uint64
}

func newMapAllocator(base, size uint64) *mapAllocator {
	return &mapAllocator{base: base, size: size, freeOrder: make(map[uint64]int)}
}

func (a *mapAllocator) contains(pfn uint64, order int) bool {
	n := uint64(1) << order
	return pfn >= a.base && pfn-a.base+n <= a.size
}

func (a *mapAllocator) pushFree(pfn uint64, order int) {
	for order < MaxOrder {
		rel := pfn - a.base
		buddyRel := rel ^ (uint64(1) << order)
		buddyPfn := a.base + buddyRel
		if o, ok := a.freeOrder[buddyPfn]; !ok || o != order || !a.contains(buddyPfn, order) {
			break
		}
		delete(a.freeOrder, buddyPfn)
		if buddyRel < rel {
			pfn = buddyPfn
		}
		order++
	}
	a.freeOrder[pfn] = order
	a.heaps[order].push(uint32(pfn - a.base))
}

func (a *mapAllocator) popFree(order int) (uint64, bool) {
	h := &a.heaps[order]
	for len(*h) > 0 {
		pfn := a.base + uint64(h.pop())
		if o, ok := a.freeOrder[pfn]; ok && o == order {
			delete(a.freeOrder, pfn)
			return pfn, true
		}
	}
	return 0, false
}

func (a *mapAllocator) Alloc() (uint64, bool) {
	for o := 0; o <= MaxOrder; o++ {
		pfn, ok := a.popFree(o)
		if !ok {
			continue
		}
		for o > 0 {
			o--
			half := pfn + (uint64(1) << o)
			a.freeOrder[half] = o
			a.heaps[o].push(uint32(half - a.base))
		}
		a.freePages--
		return pfn, true
	}
	return 0, false
}

func (a *mapAllocator) Free(pfn uint64) {
	a.freePages++
	a.pushFree(pfn, 0)
}

func (a *mapAllocator) AddRange(pfn, n uint64) {
	for i := uint64(0); i < n; i++ {
		a.Free(pfn + i)
	}
}

func (a *mapAllocator) Reserve(n uint64) []uint64 {
	out := make([]uint64, 0, n)
	for uint64(len(out)) < n {
		got := false
		for o := 0; o <= MaxOrder && uint64(len(out)) < n; o++ {
			pfn, ok := a.popFree(o)
			if !ok {
				continue
			}
			got = true
			a.freePages -= uint64(1) << o
			for i := uint64(0); i < uint64(1)<<o; i++ {
				if uint64(len(out)) < n {
					out = append(out, pfn+i)
				} else {
					a.freePages++
					a.pushFree(pfn+i, 0)
				}
			}
			break
		}
		if !got {
			break
		}
	}
	return out
}

func (a *mapAllocator) Snapshot(e *snapshot.Encoder) {
	e.U64(a.base)
	e.U64(a.size)
	e.U64(a.freePages)
	bases := make([]uint64, 0, len(a.freeOrder))
	for pfn := range a.freeOrder {
		bases = append(bases, pfn)
	}
	slices.Sort(bases)
	e.U32(uint32(len(bases)))
	for _, pfn := range bases {
		e.U64(pfn)
		e.U8(uint8(a.freeOrder[pfn]))
	}
}

// snapshotBytes frames one Snapshot call as a complete snapshot file.
func snapshotBytes(t *testing.T, fn func(*snapshot.Encoder)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Section("buddy", fn); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDenseMatchesMapOracle drives the array-backed allocator and the
// map-backed oracle through the same randomized Alloc / Free / AddRange
// / Reserve sequences, with a snapshot round trip midway, and requires
// identical returned frames, free counts and snapshot bytes throughout.
func TestDenseMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := uint64(rng.Intn(4096))
		size := uint64(1 + rng.Intn(3000))
		got, want := New(base, size), newMapAllocator(base, size)
		// populated tracks which span frames belong to the allocator
		// (free or allocated); AddRange only adds unpopulated runs.
		populated := make([]bool, size)
		var live []uint64
		for op := 0; op < 1500; op++ {
			switch k := rng.Intn(10); {
			case k < 4:
				p, err := got.Alloc()
				q, ok := want.Alloc()
				if (err == nil) != ok || p != q {
					t.Fatalf("seed %d op %d: Alloc = %d, %v; oracle %d, %v", seed, op, p, err, q, ok)
				}
				if ok {
					live = append(live, p)
				}
			case k < 7:
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				got.Free(live[i])
				want.Free(live[i])
				live = append(live[:i], live[i+1:]...)
			case k < 9:
				start := uint64(rng.Intn(int(size)))
				n := uint64(0)
				for start+n < size && !populated[start+n] && n < uint64(1+rng.Intn(600)) {
					populated[start+n] = true
					n++
				}
				got.AddRange(base+start, n)
				want.AddRange(base+start, n)
			default:
				n := uint64(rng.Intn(200))
				g, w := got.Reserve(n), want.Reserve(n)
				if !slices.Equal(g, w) {
					t.Fatalf("seed %d op %d: Reserve(%d) = %v; oracle %v", seed, op, n, g, w)
				}
				for _, p := range g {
					populated[p-base] = false
				}
			}
			if got.FreePages() != want.freePages {
				t.Fatalf("seed %d op %d: free pages %d; oracle %d", seed, op, got.FreePages(), want.freePages)
			}
			if op%100 == 0 || op == 1499 {
				if err := got.CheckInvariants(); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				gs, ws := snapshotBytes(t, got.Snapshot), snapshotBytes(t, want.Snapshot)
				if !bytes.Equal(gs, ws) {
					t.Fatalf("seed %d op %d: snapshot bytes differ from oracle", seed, op)
				}
			}
			if op == 750 {
				// Continue on an allocator restored from the snapshot.
				r, err := snapshot.Open(bytes.NewReader(snapshotBytes(t, got.Snapshot)))
				if err != nil {
					t.Fatal(err)
				}
				d, err := r.Section("buddy")
				if err != nil {
					t.Fatal(err)
				}
				got = New(base, size)
				if err := got.Restore(d); err != nil {
					t.Fatalf("seed %d: restore: %v", seed, err)
				}
			}
		}
	}
}

// TestCheckInvariantsCatchesFaults corrupts the free array by hand and
// requires each fault to be reported.
func TestCheckInvariantsCatchesFaults(t *testing.T) {
	cases := []struct {
		name, want string
		corrupt    func(a *Allocator)
	}{
		{"overlap", "covered by two free blocks", func(a *Allocator) {
			// Frame 3 is already inside the order-4 block at 0.
			a.free[3] = 1
			a.freePages++
		}},
		{"uncoalesced", "not coalesced", func(a *Allocator) {
			// Two free order-3 halves of the order-4 block.
			a.free[0], a.free[8] = 4, 4
		}},
		{"total", "!= freePages", func(a *Allocator) { a.freePages-- }},
		{"misaligned", "misaligned", func(a *Allocator) {
			a.free[0], a.free[3] = 0, 2
			a.freePages = 2
		}},
		{"outside span", "outside span", func(a *Allocator) {
			a.free[0], a.free[15] = 0, 2
			a.freePages = 2
		}},
	}
	for _, tc := range cases {
		a := newFull(0, 16) // one free order-4 block at 0
		if err := a.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		tc.corrupt(a)
		err := a.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckInvariants = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// restoreBytes restores a fresh [0,+16) allocator from a snapshot file.
func restoreBytes(t *testing.T, b []byte) error {
	t.Helper()
	r, err := snapshot.Open(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.Section("buddy")
	if err != nil {
		t.Fatal(err)
	}
	return New(0, 16).Restore(d)
}

func TestRestoreRejectsBlockOutsideSpan(t *testing.T) {
	if err := restoreBytes(t, snapshotBytes(t, newFull(0, 16).Snapshot)); err != nil {
		t.Fatal(err)
	}
	for _, blk := range []struct {
		pfn   uint64
		order uint8
	}{{8, 4}, {16, 0}, {99, 0}} {
		bad := snapshotBytes(t, func(e *snapshot.Encoder) {
			e.U64(0)  // base
			e.U64(16) // size
			e.U64(uint64(1) << blk.order)
			e.U32(1)
			e.U64(blk.pfn)
			e.U8(blk.order)
		})
		if err := restoreBytes(t, bad); err == nil || !strings.Contains(err.Error(), "outside span") {
			t.Errorf("block %d order %d: Restore = %v, want an outside-span error", blk.pfn, blk.order, err)
		}
	}
}

// TestNewRejectsSpanBeyondMaxSpan: heap entries are 32-bit offsets into
// the span, so a larger span must panic before allocating.
func TestNewRejectsSpanBeyondMaxSpan(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with a span past maxSpan did not panic")
		}
	}()
	New(0, maxSpan+1)
}
