package buddy

import (
	"container/heap"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
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
	p, err := a.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	if a.FreePages() != 1023 {
		t.Fatalf("free = %d after alloc", a.FreePages())
	}
	a.FreePage(p)
	if a.FreePages() != 1024 {
		t.Fatalf("free = %d after free", a.FreePages())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAddressOrdered(t *testing.T) {
	a := newFull(100, 256)
	p1, _ := a.AllocPage()
	p2, _ := a.AllocPage()
	if p1 != 100 || p2 != 101 {
		t.Fatalf("not address ordered: %d, %d", p1, p2)
	}
}

func TestOrderAllocAlignment(t *testing.T) {
	a := newFull(0, 1024)
	for order := 0; order <= MaxOrder; order++ {
		p, err := a.Alloc(order)
		if err != nil {
			t.Fatalf("order %d: %v", order, err)
		}
		if p%(1<<uint(order)) != 0 {
			t.Fatalf("order %d block at %d misaligned", order, p)
		}
		a.Free(p, order)
	}
	if a.FreePages() != 1024 {
		t.Fatalf("leaked pages: %d", a.FreePages())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitAndCoalesce(t *testing.T) {
	a := newFull(0, 16)
	// Allocate all 16 pages singly: splits must occur.
	var pages []uint64
	for i := 0; i < 16; i++ {
		p, err := a.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
	}
	if a.Splits() == 0 {
		t.Fatal("expected splits")
	}
	if _, err := a.AllocPage(); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("want ErrNoMemory, got %v", err)
	}
	// Free all: coalescing must reassemble one order-4 block.
	for _, p := range pages {
		a.FreePage(p)
	}
	if a.Coalesces() == 0 {
		t.Fatal("expected coalesces")
	}
	if p, err := a.Alloc(4); err != nil || p != 0 {
		t.Fatalf("order-4 realloc failed: %d, %v", p, err)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := newFull(0, 8)
	p, _ := a.AllocPage()
	a.FreePage(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.FreePage(p)
}

func TestFreeOutsideSpanPanics(t *testing.T) {
	a := newFull(10, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-span free did not panic")
		}
	}()
	a.FreePage(5)
}

func TestInvalidOrder(t *testing.T) {
	a := newFull(0, 8)
	if _, err := a.Alloc(-1); err == nil {
		t.Fatal("negative order accepted")
	}
	if _, err := a.Alloc(MaxOrder + 1); err == nil {
		t.Fatal("oversized order accepted")
	}
}

func TestPartialPopulation(t *testing.T) {
	a := New(0, 1024)
	if _, err := a.AllocPage(); !errors.Is(err, ErrNoMemory) {
		t.Fatal("unpopulated allocator should be empty")
	}
	a.AddRange(512, 64)
	if a.FreePages() != 64 {
		t.Fatalf("free = %d", a.FreePages())
	}
	p, err := a.AllocPage()
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
		p, err := a.AllocPage()
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
		a.FreePage(p)
	}
	// Only order-0 blocks available now.
	if _, err := a.Alloc(1); !errors.Is(err, ErrNoMemory) {
		t.Fatal("order-1 should fail under full fragmentation")
	}
	for _, p := range even {
		a.FreePage(p)
	}
	// Everything coalesces back; a large block must succeed.
	if _, err := a.Alloc(8); err != nil {
		t.Fatal(err)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBuddyInvariantProperty(t *testing.T) {
	// Property: arbitrary alloc/free interleavings preserve invariants
	// and conserve frames.
	type held struct {
		pfn   uint64
		order int
	}
	f := func(ops []uint16) bool {
		a := newFull(0, 512)
		var live []held
		for _, op := range ops {
			if op%2 == 0 || len(live) == 0 {
				order := int(op>>2) % 4
				p, err := a.Alloc(order)
				if err == nil {
					live = append(live, held{p, order})
				}
			} else {
				i := int(op>>2) % len(live)
				a.Free(live[i].pfn, live[i].order)
				live = append(live[:i], live[i+1:]...)
			}
		}
		var livePages uint64
		for _, h := range live {
			livePages += uint64(1) << h.order
		}
		if a.FreePages()+livePages != 512 {
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

func TestOrderHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var got orderHeap
	var want refHeap
	for op := 0; op < 20000; op++ {
		if len(got) > 0 && rng.Intn(5) < 2 {
			g, w := got.pop(), heap.Pop(&want).(uint64)
			if g != w {
				t.Fatalf("op %d: pop = %d, container/heap = %d", op, g, w)
			}
		} else {
			// A narrow value range forces duplicates, like stale entries.
			x := uint64(rng.Intn(512))
			got.push(x)
			heap.Push(&want, x)
		}
		if !slices.Equal([]uint64(got), []uint64(want)) {
			t.Fatalf("op %d: layout %v, container/heap %v", op, got, want)
		}
	}
}

func TestAllocFreeZeroAlloc(t *testing.T) {
	a := newFull(0, 4096)
	// Warm the heaps to their steady-state capacity.
	for i := 0; i < 3; i++ {
		p, _ := a.Alloc(2)
		a.Free(p, 2)
	}
	if n := testing.AllocsPerRun(100, func() {
		p, err := a.Alloc(2)
		if err != nil {
			t.Fatal(err)
		}
		a.Free(p, 2)
	}); n != 0 {
		t.Fatalf("Alloc/Free allocated %.1f times per run", n)
	}
}
