package pagecache

import (
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

// testSpan is the frame span of every test cache.
const testSpan = 1 << 12

// framePool hands out ascending frames below testSpan, up to a limit of
// frames out at once.
type framePool struct {
	next  uint64
	limit int
	out   map[uint64]bool
}

func newFramePool(limit int) *framePool {
	return &framePool{limit: limit, out: map[uint64]bool{}}
}

func (p *framePool) alloc() (uint64, bool) {
	if p.limit > 0 && len(p.out) >= p.limit || p.next >= testSpan {
		return 0, false
	}
	pfn := p.next
	p.next++
	p.out[pfn] = true
	return pfn, true
}

func (p *framePool) free(pfn uint64) {
	if !p.out[pfn] {
		panic("free of unallocated frame")
	}
	delete(p.out, pfn)
}

func TestReadMissThenHit(t *testing.T) {
	p := newFramePool(0)
	c := New(testSpan, p.alloc, p.free)
	c.ReadaheadWindow = 0
	r1 := c.Read(nil, 1, 0, 4)
	if r1.DiskPages != 4 || len(r1.Touched) != 4 {
		t.Fatalf("first read: disk=%d touched=%d", r1.DiskPages, len(r1.Touched))
	}
	r2 := c.Read(nil, 1, 0, 4)
	if r2.DiskPages != 0 {
		t.Fatalf("second read hit disk: %d", r2.DiskPages)
	}
	if !slices.Equal(r2.Touched, r1.Touched) {
		t.Fatalf("second read touched %v, first %v", r2.Touched, r1.Touched)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReadahead(t *testing.T) {
	p := newFramePool(0)
	c := New(testSpan, p.alloc, p.free)
	c.ReadaheadWindow = 8
	r := c.Read(nil, 1, 0, 2)
	// 2 demand pages + 8 readahead pages.
	if r.DiskPages != 10 {
		t.Fatalf("disk pages = %d, want 10", r.DiskPages)
	}
	// Sequential follow-up is fully cached.
	r2 := c.Read(nil, 1, 2, 8)
	if r2.DiskPages != 0 {
		t.Fatalf("readahead did not absorb sequential read: %d", r2.DiskPages)
	}
}

func TestReadaheadStopsAtCachedPage(t *testing.T) {
	p := newFramePool(0)
	c := New(testSpan, p.alloc, p.free)
	c.ReadaheadWindow = 8
	c.Read(nil, 1, 4, 1) // caches 4..12
	before := c.Pages()
	c.Read(nil, 1, 0, 2) // readahead from 2 hits page 4 and stops
	added := c.Pages() - before
	if added != 4 { // pages 0,1 demand + 2,3 readahead
		t.Fatalf("added %d pages, want 4", added)
	}
}

func TestWriteMarksDirtyAndWriteback(t *testing.T) {
	p := newFramePool(0)
	c := New(testSpan, p.alloc, p.free)
	c.ReadaheadWindow = 0
	w := c.Write(nil, 2, 10, 3)
	if len(w.Touched) != 3 {
		t.Fatalf("touched = %d", len(w.Touched))
	}
	if c.DirtyCount() != 3 {
		t.Fatalf("dirty = %d", c.DirtyCount())
	}
	for _, pfn := range w.Touched {
		if !c.Dirty(pfn) {
			t.Fatalf("frame %d not dirty", pfn)
		}
	}
	flushed := c.Writeback(nil, 2)
	if len(flushed) != 2 || c.DirtyCount() != 1 {
		t.Fatalf("writeback(2): flushed=%d remaining=%d", len(flushed), c.DirtyCount())
	}
	flushed = c.Writeback(nil, 0) // 0 = all
	if len(flushed) != 1 || c.DirtyCount() != 0 {
		t.Fatalf("writeback(all): flushed=%d remaining=%d", len(flushed), c.DirtyCount())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRewriteDoesNotDoubleDirty(t *testing.T) {
	p := newFramePool(0)
	c := New(testSpan, p.alloc, p.free)
	c.Write(nil, 1, 0, 1)
	c.Write(nil, 1, 0, 1)
	if c.DirtyCount() != 1 {
		t.Fatalf("dirty = %d, want 1", c.DirtyCount())
	}
}

func TestEvictCleanAndDirty(t *testing.T) {
	p := newFramePool(0)
	c := New(testSpan, p.alloc, p.free)
	c.ReadaheadWindow = 0
	r := c.Read(nil, 1, 0, 1)
	w := c.Write(nil, 1, 5, 1)
	clean, dirty := r.Touched[0], w.Touched[0]
	if wb := c.Evict(clean); wb {
		t.Fatal("clean evict reported writeback")
	}
	if wb := c.Evict(dirty); !wb {
		t.Fatal("dirty evict must report writeback")
	}
	if c.Pages() != 0 {
		t.Fatalf("pages = %d", c.Pages())
	}
	if len(p.out) != 0 {
		t.Fatal("frames leaked")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEvictUnownedPanics(t *testing.T) {
	p := newFramePool(0)
	c := New(testSpan, p.alloc, p.free)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Evict(42)
}

func TestAllocFailureFallsBackToDirectIO(t *testing.T) {
	p := newFramePool(2)
	c := New(testSpan, p.alloc, p.free)
	c.ReadaheadWindow = 4
	r := c.Read(nil, 1, 0, 4)
	// 2 pages cached; 2 uncached direct reads; readahead silently stops.
	if r.AllocFailed != 2 {
		t.Fatalf("alloc failed = %d, want 2", r.AllocFailed)
	}
	if r.DiskPages != 4 {
		t.Fatalf("disk pages = %d, want 4", r.DiskPages)
	}
	w := c.Write(nil, 1, 100, 1)
	if w.AllocFailed != 1 || w.DiskPages != 1 {
		t.Fatalf("write fallback wrong: %+v", w)
	}
}

func TestIdentityAndOwns(t *testing.T) {
	p := newFramePool(0)
	c := New(testSpan, p.alloc, p.free)
	c.ReadaheadWindow = 0
	r := c.Read(nil, 7, 123, 1)
	pfn := r.Touched[0]
	if !c.Owns(pfn) {
		t.Fatal("Owns false for cached frame")
	}
	f, off, ok := c.Identity(pfn)
	if !ok || f != 7 || off != 123 {
		t.Fatalf("identity = %d@%d ok=%v", f, off, ok)
	}
	if c.Owns(9999) {
		t.Fatal("Owns true for random frame")
	}
}

func TestCacheInvariantProperty(t *testing.T) {
	// Property: random sequences of reads, writes, writebacks and
	// evictions keep the maps consistent and never leak frames.
	f := func(ops []uint16) bool {
		p := newFramePool(64)
		c := New(testSpan, p.alloc, p.free)
		c.ReadaheadWindow = 2
		for _, op := range ops {
			file := FileID(op%3 + 1)
			off := uint64(op >> 4 % 32)
			switch op % 4 {
			case 0:
				c.Read(nil, file, off, int(op%5)+1)
			case 1:
				c.Write(nil, file, off, int(op%5)+1)
			case 2:
				c.Writeback(nil, int(op%8))
			case 3:
				// Evict a known page if one exists at (file, off).
				if pfn, ok := c.Lookup(file, off); ok {
					c.Evict(pfn)
				}
			}
			if c.CheckInvariants() != nil {
				return false
			}
		}
		// Frames out == pages cached.
		return len(p.out) == c.Pages()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRekeyPreservesIdentityAndDirty(t *testing.T) {
	p := newFramePool(0)
	c := New(testSpan, p.alloc, p.free)
	c.ReadaheadWindow = 0
	w := c.Write(nil, 3, 9, 1)
	old := w.Touched[0]
	c.Rekey(old, 777)
	if c.Owns(old) {
		t.Fatal("old frame still owned")
	}
	f, off, ok := c.Identity(777)
	if !ok || f != 3 || off != 9 {
		t.Fatal("identity lost")
	}
	if !c.Dirty(777) || c.Dirty(old) {
		t.Fatal("dirty state not transferred")
	}
	if pfn, _ := c.Lookup(3, 9); pfn != 777 {
		t.Fatal("forward map not rekeyed")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRekeyPanics(t *testing.T) {
	p := newFramePool(0)
	c := New(testSpan, p.alloc, p.free)
	c.ReadaheadWindow = 0
	r := c.Read(nil, 1, 0, 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("rekey of unowned frame did not panic")
			}
		}()
		c.Rekey(999, 1000)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("rekey onto cached frame did not panic")
			}
		}()
		c.Rekey(r.Touched[0], r.Touched[1])
	}()
}

// TestColumnAllocatedAtFirstInsert: a cache that never inserts a page
// (a guest without file I/O) allocates only its header, whatever its
// span, even when looked up, written back, checked and snapshotted;
// the first insert allocates the reverse-map column at 8 B per frame.
func TestColumnAllocatedAtFirstInsert(t *testing.T) {
	const span = 1 << 20
	if n := testing.AllocsPerRun(10, func() { New(span, nil, nil) }); n > 1 {
		t.Fatalf("New allocated %.0f times, want only the cache header", n)
	}
	p := newFramePool(0)
	c := New(span, p.alloc, p.free)
	c.Lookup(1, 0)
	c.Writeback(nil, 0)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	stateFile(t, c)
	if c.rmap != nil {
		t.Fatal("the reverse-map column was allocated before any insert")
	}
	c.Read(nil, 1, 0, 1)
	if len(c.rmap) != span || unsafe.Sizeof(c.rmap[0]) != 8 {
		t.Fatalf("column of %d cells of %d B after the first insert, want %d of 8 B", len(c.rmap), unsafe.Sizeof(c.rmap[0]), span)
	}
}
