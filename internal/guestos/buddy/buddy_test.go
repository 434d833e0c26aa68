package buddy

import (
	"bytes"
	"container/heap"
	"encoding/binary"
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

// orderSet is a handle on a's free blocks of order o, by block number.
type orderSet struct {
	a *Allocator
	o int
}

func byOrder(a *Allocator, o int) orderSet { return orderSet{a, o} }

func (s orderSet) Has(b uint64) bool { return s.a.isFree(s.o, b) }

func (s orderSet) Next(b uint64) (uint64, bool) { return s.a.nextFree(s.o, b) }

func (s orderSet) Add(b uint64) { s.a.free.Add(s.a.start[s.o] + b) }

func (s orderSet) Remove(b uint64) { s.a.free.Remove(s.a.start[s.o] + b) }

// freeOrder returns the order of the free block based at pfn, or -1.
func freeOrder(a *Allocator, pfn uint64) int {
	rel := pfn - a.base
	for o := 0; o <= MaxOrder; o++ {
		if rel%(1<<o) == 0 && byOrder(a, o).Has(rel>>o) {
			return o
		}
	}
	return -1
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
		if got := freeOrder(a, base); got != order {
			t.Fatalf("order %d: AddRange left order %d at %d, want one free block", order, got, base)
		}
		p, err := a.Alloc()
		if err != nil || p != base {
			t.Fatalf("order %d: Alloc = %d, %v; want %d", order, p, err, base)
		}
		if a.IsFree(p) || a.IsFree(base+uint64(1)<<order) {
			t.Fatalf("order %d: IsFree reports an allocated or unpopulated frame", order)
		}
		for j := 0; j < order; j++ {
			if half := base + uint64(1)<<j; freeOrder(a, half) != j {
				t.Fatalf("order %d: split left order %d at %d, want a free order-%d block", order, freeOrder(a, half), half, j)
			}
			// IsFree finds the block from its last frame too.
			if last := base + uint64(1)<<(j+1) - 1; !a.IsFree(last) {
				t.Fatalf("order %d: IsFree(%d) = false inside a free order-%d block", order, last, j)
			}
		}
		a.Free(p)
		if a.FreePages() != uint64(1)<<order || freeOrder(a, base) != order {
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
	if freeOrder(a, 0) != 4 || a.FreePages() != 16 {
		t.Fatalf("order %d at 0, free pages %d; want one order-4 block", freeOrder(a, 0), a.FreePages())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := newFull(0, 8)
	p, _ := a.Alloc()
	a.Free(p)
	// p is the free order-3 block's base; frame 5 lies inside it.
	for _, pfn := range []uint64{p, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("double free of frame %d did not panic", pfn)
				}
			}()
			a.Free(pfn)
		}()
	}
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
	for o := 1; o <= MaxOrder; o++ {
		if b, ok := byOrder(a, o).Next(0); ok {
			t.Fatalf("order-%d block at %d under full fragmentation", o, b<<o)
		}
	}
	for _, p := range even {
		a.Free(p)
	}
	// Everything coalesces back into one order-8 block.
	if freeOrder(a, 0) != 8 {
		t.Fatalf("order %d at 0, want an order-8 block", freeOrder(a, 0))
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
	if a.base != 7 || a.size != 100 {
		t.Fatal("accessors wrong")
	}
}

func TestAllocFreeZeroAlloc(t *testing.T) {
	a := newFull(0, 4096)
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

// mapAllocator is the differential oracle for Allocator: free blocks
// in a map from base to order, found through per-order container/heap
// min-heaps of bases that leave a stale entry wherever a block is
// merged away. It shares no code with the per-order sets.
type mapAllocator struct {
	base, size uint64
	freeOrder  map[uint64]int
	heaps      [MaxOrder + 1]refHeap
	freePages  uint64
}

// refHeap is a container/heap min-heap of block bases.
type refHeap []uint64

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(uint64)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
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
	heap.Push(&a.heaps[order], pfn)
}

func (a *mapAllocator) popFree(order int) (uint64, bool) {
	h := &a.heaps[order]
	for h.Len() > 0 {
		pfn := heap.Pop(h).(uint64)
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
			heap.Push(&a.heaps[o], half)
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

func (a *mapAllocator) Snapshot(c *snapshot.Codec) error {
	c.U64(&a.base)
	c.U64(&a.size)
	c.U64(&a.freePages)
	bases := make([]uint64, 0, len(a.freeOrder))
	for pfn := range a.freeOrder {
		bases = append(bases, pfn)
	}
	slices.Sort(bases)
	n := len(bases)
	c.Len(&n)
	for _, pfn := range bases {
		order := uint8(a.freeOrder[pfn])
		c.U64(&pfn)
		c.U8(&order)
	}
	return nil
}

// snapshotBytes frames one section body, written by fn, as a complete
// snapshot file.
func snapshotBytes(t testing.TB, fn func(*snapshot.Codec) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.State("buddy", fn); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stateBytes frames a's SnapshotState as a complete snapshot file.
func stateBytes(t testing.TB, a *Allocator) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.State("buddy", a.SnapshotState); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// restoreFile reads a snapshot file's buddy section into a.
func restoreFile(t testing.TB, a *Allocator, b []byte) error {
	t.Helper()
	r, err := snapshot.Open(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return r.State("buddy", a.SnapshotState)
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
				gs, ws := stateBytes(t, got), snapshotBytes(t, want.Snapshot)
				if !bytes.Equal(gs, ws) {
					t.Fatalf("seed %d op %d: snapshot bytes differ from oracle", seed, op)
				}
			}
			if op == 750 {
				// Continue on an allocator restored from the snapshot.
				b := stateBytes(t, got)
				got = New(base, size)
				if err := restoreFile(t, got, b); err != nil {
					t.Fatalf("seed %d: restore: %v", seed, err)
				}
			}
		}
	}

	// A fixed case: 65,536 frames populated as runs of ragged length and
	// alignment, then drawn down frame by frame.
	const frames = 65536
	got, want := New(0, frames), newMapAllocator(0, frames)
	var pfn uint64
	for _, n := range []uint64{3, 1021, 40000, frames - 41024} {
		got.AddRange(pfn, n)
		want.AddRange(pfn, n)
		pfn += n
	}
	for i := 0; i <= 3000; i++ {
		if i%1000 == 0 {
			if err := got.CheckInvariants(); err != nil {
				t.Fatalf("ragged runs, %d allocs: %v", i, err)
			}
			if !bytes.Equal(stateBytes(t, got), snapshotBytes(t, want.Snapshot)) {
				t.Fatalf("ragged runs, %d allocs: snapshot bytes differ from oracle", i)
			}
		}
		p, err := got.Alloc()
		q, ok := want.Alloc()
		if err != nil || !ok || p != q {
			t.Fatalf("ragged runs, alloc %d = %d, %v; oracle %d, %v", i, p, err, q, ok)
		}
	}
}

// TestCheckInvariantsCatchesFaults corrupts the per-order free sets by
// hand and requires each fault to be reported. A misaligned block has
// no representation in the sets; Restore rejects one on the way in.
func TestCheckInvariantsCatchesFaults(t *testing.T) {
	cases := []struct {
		name, want string
		corrupt    func(a *Allocator)
	}{
		{"overlap", "covered by two free blocks", func(a *Allocator) {
			// Frame 3 is already inside the order-4 block at 0.
			byOrder(a, 0).Add(3)
			a.freePages++
		}},
		{"uncoalesced", "not coalesced", func(a *Allocator) {
			// Two free order-3 halves of the order-4 block.
			byOrder(a, 4).Remove(0)
			byOrder(a, 3).Add(0)
			byOrder(a, 3).Add(1)
		}},
		{"total", "!= freePages", func(a *Allocator) { a.freePages-- }},
		{"outside span", "beyond span", func(a *Allocator) {
			// Order-1 block 8 would be frames 16 and 17.
			byOrder(a, 4).Remove(0)
			byOrder(a, 1).Add(8)
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

// blocksSection writes a [0,+16) buddy section with the given free-page
// count and {base, order} blocks, in the order given.
func blocksSection(free uint64, blocks ...[2]uint64) func(*snapshot.Codec) error {
	return func(c *snapshot.Codec) error {
		base, size, n := uint64(0), uint64(16), len(blocks)
		c.U64(&base)
		c.U64(&size)
		c.U64(&free)
		c.Len(&n)
		for _, b := range blocks {
			order := uint8(b[1])
			c.U64(&b[0])
			c.U8(&order)
		}
		return nil
	}
}

// sectionBody returns a snapshot file's buddy section body.
func sectionBody(tb testing.TB, file []byte) []byte {
	r, err := snapshot.Open(bytes.NewReader(file))
	if err != nil {
		tb.Fatal(err)
	}
	b, _ := r.Raw("buddy")
	return b
}

// restoreBytes restores a fresh [0,+16) allocator from a snapshot file.
func restoreBytes(t *testing.T, b []byte) error {
	t.Helper()
	return restoreFile(t, New(0, 16), b)
}

func TestRestoreRejectsBlockOutsideSpan(t *testing.T) {
	if err := restoreBytes(t, stateBytes(t, newFull(0, 16))); err != nil {
		t.Fatal(err)
	}
	for _, blk := range [][2]uint64{{8, 4}, {16, 0}, {99, 0}, {^uint64(0), 1}} {
		bad := snapshotBytes(t, blocksSection(1<<blk[1], blk))
		if err := restoreBytes(t, bad); err == nil || !strings.Contains(err.Error(), "outside span") {
			t.Errorf("block %d order %d: Restore = %v, want an outside-span error", blk[0], blk[1], err)
		}
	}
}

// malformedBlocks are block lists SnapshotState never writes for a valid
// [0,+16) allocator; reading must refuse each.
var malformedBlocks = []struct {
	name, want string
	free       uint64
	blocks     [][2]uint64 // {base, order}
}{
	{"misaligned", "misaligned", 2, [][2]uint64{{3, 1}}},
	{"overlap", "below the previous block's end", 17, [][2]uint64{{0, 4}, {3, 0}}},
	{"uncoalesced", "not coalesced", 16, [][2]uint64{{0, 3}, {8, 3}}},
	{"free pages over", "header says 99 free", 99, [][2]uint64{{5, 0}}},
	{"descending", "below the previous block's end", 2, [][2]uint64{{8, 0}, {0, 0}}},
}

func TestRestoreRejectsMalformedBlocks(t *testing.T) {
	for _, tc := range malformedBlocks {
		t.Run(tc.name, func(t *testing.T) {
			err := restoreBytes(t, snapshotBytes(t, blocksSection(tc.free, tc.blocks...)))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// churned returns a [100,+3000) allocator after a seeded run of
// populates, allocations and frees.
func churned() *Allocator {
	rng := rand.New(rand.NewSource(9))
	a := New(100, 3000)
	a.AddRange(100, 1000)
	a.AddRange(1700, 1300)
	var live []uint64
	for i := 0; i < 2000; i++ {
		if rng.Intn(3) > 0 {
			if p, err := a.Alloc(); err == nil {
				live = append(live, p)
			}
		} else if len(live) > 0 {
			j := rng.Intn(len(live))
			a.Free(live[j])
			live = append(live[:j], live[j+1:]...)
		}
	}
	return a
}

// FuzzRestore feeds SnapshotState arbitrary section bodies, written
// byte by byte through Writer.State. Whatever it accepts must pass
// CheckInvariants, survive an Alloc/Free round trip, and be exactly
// what SnapshotState writes back.
func FuzzRestore(f *testing.F) {
	f.Add(sectionBody(f, stateBytes(f, churned())))
	for _, tc := range malformedBlocks {
		f.Add(sectionBody(f, snapshotBytes(f, blocksSection(tc.free, tc.blocks...))))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 16 {
			return
		}
		base, size := binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:])
		if size > 1<<16 || base+size < base {
			return
		}
		a := New(base, size)
		raw := snapshotBytes(t, func(c *snapshot.Codec) error {
			for i := range b {
				c.U8(&b[i])
			}
			return nil
		})
		if restoreFile(t, a, raw) != nil {
			return
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("Restore accepted a state CheckInvariants rejects: %v", err)
		}
		if out := sectionBody(t, stateBytes(t, a)); !bytes.HasPrefix(b, out) {
			t.Fatalf("SnapshotState after a restore wrote %x, input %x", out, b)
		}
		free := a.FreePages()
		if p, err := a.Alloc(); err == nil {
			a.Free(p)
		}
		if err := a.CheckInvariants(); err != nil || a.FreePages() != free {
			t.Fatalf("after an Alloc/Free round trip: %v, %d free pages, was %d", err, a.FreePages(), free)
		}
	})
}
