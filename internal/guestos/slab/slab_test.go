package slab

import (
	"errors"
	"testing"
	"testing/quick"
)

// pagePool is a trivial contiguous-page provider for tests.
type pagePool struct {
	next  uint64
	limit int
	out   int
}

func (p *pagePool) get(n int) (uint64, bool) {
	if p.limit > 0 && p.out+n > p.limit {
		return 0, false
	}
	base := p.next
	p.next += uint64(n)
	p.out += n
	return base, true
}

func (p *pagePool) put(base uint64, n int) { p.out -= n }

func TestAllocFillsSlabDensely(t *testing.T) {
	p := &pagePool{}
	c := New("skbuff", 256, 1, p.get, p.put)
	if c.ObjsPerSlab() != 16 {
		t.Fatalf("objs per slab = %d, want 16", c.ObjsPerSlab())
	}
	var refs []ObjRef
	for i := 0; i < 16; i++ {
		r, err := c.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	// All 16 objects should share one slab.
	if c.Pages() != 1 {
		t.Fatalf("pages = %d, want 1", c.Pages())
	}
	for i, r := range refs {
		if r.SlabBase != refs[0].SlabBase {
			t.Fatalf("object %d in different slab", i)
		}
		if r.Index != i {
			t.Fatalf("object %d has index %d (want ascending dense packing)", i, r.Index)
		}
	}
	// 17th object forces a second slab.
	if _, err := c.Alloc(); err != nil {
		t.Fatal(err)
	}
	if c.Pages() != 2 {
		t.Fatalf("pages = %d, want 2", c.Pages())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFreeAndReuse(t *testing.T) {
	p := &pagePool{}
	c := New("dentry", 1024, 1, p.get, p.put)
	r1, _ := c.Alloc()
	r2, _ := c.Alloc()
	c.Free(r1)
	r3, err := c.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	// The freed slot must be reused before any new slab is created.
	if r3.SlabBase != r2.SlabBase {
		t.Fatal("free slot not reused")
	}
	if c.InUse() != 2 {
		t.Fatalf("in use = %d", c.InUse())
	}
}

func TestEmptySlabRetentionAndRelease(t *testing.T) {
	p := &pagePool{}
	c := New("inode", 512, 1, p.get, p.put)
	perSlab := c.ObjsPerSlab()
	// Fill maxEmptySlabs+2 slabs completely.
	var refs []ObjRef
	for i := 0; i < perSlab*(maxEmptySlabs+2); i++ {
		r, err := c.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	pagesBefore := c.Pages()
	for _, r := range refs {
		c.Free(r)
	}
	// maxEmptySlabs retained, the rest returned to the page pool.
	if got := c.Pages(); got != maxEmptySlabs {
		t.Fatalf("retained %d slabs, want %d (before: %d)", got, maxEmptySlabs, pagesBefore)
	}
	if c.InUse() != 0 {
		t.Fatal("objects leaked")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Retained empty slabs are reused without new page allocations.
	before := p.out
	if _, err := c.Alloc(); err != nil {
		t.Fatal(err)
	}
	if p.out != before {
		t.Fatal("retained slab not reused")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExhaustion(t *testing.T) {
	p := &pagePool{limit: 1}
	c := New("bio", 2048, 1, p.get, p.put)
	if _, err := c.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Alloc(); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("want ErrNoMemory, got %v", err)
	}
}

func TestMultiPageSlab(t *testing.T) {
	p := &pagePool{}
	c := New("big", 4096, 2, p.get, p.put)
	if c.ObjsPerSlab() != 2 || c.PagesPerSlab() != 2 {
		t.Fatalf("geometry wrong: %d objs, %d pages", c.ObjsPerSlab(), c.PagesPerSlab())
	}
	r, _ := c.Alloc()
	if c.Pages() != 2 {
		t.Fatalf("pages = %d", c.Pages())
	}
	c.Free(r)
}

func TestDoubleFreePanics(t *testing.T) {
	p := &pagePool{}
	c := New("x", 256, 1, p.get, p.put)
	r, _ := c.Alloc()
	c.Free(r)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	c.Free(r)
}

// TestDoubleFreeWideSlab double-frees objects in a 128-object slab,
// whose free mask spills past its first word, and requires a panic for
// an object on either side of the boundary.
func TestDoubleFreeWideSlab(t *testing.T) {
	p := &pagePool{}
	c := New("wide", 32, 1, p.get, p.put)
	var refs []ObjRef
	for range c.ObjsPerSlab() {
		r, err := c.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	for _, i := range []int{5, 100} {
		c.Free(refs[i])
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("double free of object %d did not panic", i)
				}
			}()
			c.Free(refs[i])
		}()
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if r, _ := c.Alloc(); r != refs[100] {
		t.Fatalf("alloc after frees = %v, want the last freed %v", r, refs[100])
	}
}

func TestFreeUnknownSlabPanics(t *testing.T) {
	p := &pagePool{}
	c := New("x", 256, 1, p.get, p.put)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown slab free did not panic")
		}
	}()
	c.Free(ObjRef{SlabBase: 999, Index: 0})
}

func TestConstructorValidation(t *testing.T) {
	p := &pagePool{}
	bad := []func(){
		func() { New("x", 0, 1, p.get, p.put) },
		func() { New("x", 8192, 1, p.get, p.put) },
		func() { New("x", 256, 0, p.get, p.put) },
	}
	for i, f := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestStatsAndBases(t *testing.T) {
	p := &pagePool{}
	c := New("x", 512, 1, p.get, p.put)
	r, _ := c.Alloc()
	c.Free(r)
	allocs, frees, slabAllocs, _ := c.Stats()
	if allocs != 1 || frees != 1 || slabAllocs != 1 {
		t.Fatalf("stats wrong: %d %d %d", allocs, frees, slabAllocs)
	}
	if len(c.Bases()) != 1 {
		t.Fatalf("bases = %v", c.Bases())
	}
	if c.Name() != "x" || c.ObjSize() != 512 {
		t.Fatal("accessors wrong")
	}
}

func TestSlabInvariantProperty(t *testing.T) {
	// Property: arbitrary alloc/free interleavings keep per-slab
	// accounting consistent and never lose objects.
	f := func(ops []uint8) bool {
		p := &pagePool{}
		c := New("prop", 512, 1, p.get, p.put)
		var live []ObjRef
		allocated, freed := 0, 0
		for _, op := range ops {
			if op%3 != 0 || len(live) == 0 {
				r, err := c.Alloc()
				if err != nil {
					return false
				}
				live = append(live, r)
				allocated++
			} else {
				i := int(op>>2) % len(live)
				c.Free(live[i])
				live = append(live[:i], live[i+1:]...)
				freed++
			}
		}
		if c.InUse() != allocated-freed {
			return false
		}
		return c.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
