// Package slab implements the kernel object allocator (kmem caches) the
// guest OS uses for network buffers (skbuff), filesystem metadata,
// dentries, inodes, and block-layer structures. Section 3.2 of the paper
// shows that prioritising these slab pages into FastMem accelerates
// storage- and network-intensive applications, so the slab layer must be
// real enough that its page demand is visible to the placement policy.
//
// The design follows Linux's SLAB: a cache holds slabs of one or more
// contiguous pages, each divided into fixed-size objects; slabs move
// between full, partial, and empty lists; empty slabs beyond a retention
// threshold are returned to the page allocator.
package slab

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// ErrNoMemory is returned when the page allocator cannot back a new slab.
var ErrNoMemory = errors.New("slab: page allocator exhausted")

// GetPages obtains n contiguous frames from the page allocator and
// reports the base frame, or ok=false on exhaustion.
type GetPages func(n int) (base uint64, ok bool)

// PutPages returns a slab's frames to the page allocator.
type PutPages func(base uint64, n int)

// ObjRef identifies an allocated object: the slab's base frame plus the
// object index within the slab.
type ObjRef struct {
	SlabBase uint64
	Index    int
}

// PageSize is the frame size used to compute objects-per-slab.
const PageSize = 4096

// maxEmptySlabs is how many empty slabs a cache retains before returning
// pages to the page allocator (working-set hysteresis, like Linux's
// per-cache free limits).
const maxEmptySlabs = 2

type slabState struct {
	base     uint64
	free     []int // free object indices (stack)
	inUse    int
	capacity int
	// mask has bit i set while object i is on the free stack; objects
	// from 64 up use more.
	mask uint64
	more []uint64
}

// bit returns the mask word and bit of object i.
func (s *slabState) bit(i int) (*uint64, uint64) {
	if i < 64 {
		return &s.mask, 1 << i
	}
	return &s.more[(i-64)>>6], 1 << (i & 63)
}

// newSlabState returns a slab of capacity objects with its free mask
// sized and empty.
func newSlabState(base uint64, capacity int) *slabState {
	s := &slabState{base: base, capacity: capacity}
	if capacity > 64 {
		s.more = make([]uint64, (capacity-1)>>6)
	}
	return s
}

// Cache is one kmem cache ("skbuff_head_cache", "dentry", ...).
type Cache struct {
	name         string
	objSize      int
	pagesPerSlab int
	objsPerSlab  int
	get          GetPages
	put          PutPages

	slabs   []*slabState // live slabs in ascending base order
	hot     int          // index of the slab find returned last; may be stale
	partial []uint64     // bases with free objects (may contain stale entries)
	empties int

	allocs, frees, slabAllocs, slabFrees uint64
}

// New builds a cache of objSize-byte objects in slabs of pagesPerSlab
// contiguous frames.
func New(name string, objSize, pagesPerSlab int, get GetPages, put PutPages) *Cache {
	if objSize <= 0 || objSize > pagesPerSlab*PageSize {
		panic(fmt.Sprintf("slab %s: invalid object size %d", name, objSize))
	}
	if pagesPerSlab <= 0 {
		panic(fmt.Sprintf("slab %s: invalid pagesPerSlab %d", name, pagesPerSlab))
	}
	return &Cache{
		name:         name,
		objSize:      objSize,
		pagesPerSlab: pagesPerSlab,
		objsPerSlab:  pagesPerSlab * PageSize / objSize,
		get:          get,
		put:          put,
	}
}

// Name returns the cache name.
func (c *Cache) Name() string { return c.name }

// ObjSize returns the object size in bytes.
func (c *Cache) ObjSize() int { return c.objSize }

func (c *Cache) newSlab() (*slabState, error) {
	base, ok := c.get(c.pagesPerSlab)
	if !ok {
		return nil, fmt.Errorf("%w: cache %s", ErrNoMemory, c.name)
	}
	at, live := c.find(base)
	if live {
		panic(fmt.Sprintf("slab %s: page allocator returned live slab %d", c.name, base))
	}
	s := newSlabState(base, c.objsPerSlab)
	s.free = make([]int, c.objsPerSlab)
	for i := range s.free {
		s.free[i] = c.objsPerSlab - 1 - i // pop in ascending index order
		w, b := s.bit(i)
		*w |= b
	}
	c.slabs = slices.Insert(c.slabs, at, s)
	c.slabAllocs++
	return s, nil
}

// find returns the position of the slab based at base, or where it
// would be inserted, and whether it is live. Consecutive calls mostly
// name the same slab (objects are handed out and freed in runs), so
// the last slab found is tried before a binary search.
func (c *Cache) find(base uint64) (int, bool) {
	if h := c.hot; h < len(c.slabs) && c.slabs[h].base == base {
		return h, true
	}
	lo, hi := 0, len(c.slabs)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); c.slabs[m].base < base {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(c.slabs) && c.slabs[lo].base == base {
		c.hot = lo
		return lo, true
	}
	return lo, false
}

// Alloc allocates one object. It prefers partially-full slabs (dense
// packing), then creates a new slab from the page allocator.
func (c *Cache) Alloc() (ObjRef, error) {
	var s *slabState
	fresh := false
	for len(c.partial) > 0 {
		i, ok := c.find(c.partial[len(c.partial)-1])
		if !ok || len(c.slabs[i].free) == 0 {
			c.partial = c.partial[:len(c.partial)-1] // stale
			continue
		}
		s = c.slabs[i]
		break
	}
	if s == nil {
		var err error
		s, err = c.newSlab()
		if err != nil {
			return ObjRef{}, err
		}
		c.partial = append(c.partial, s.base)
		fresh = true
	}
	if s.inUse == 0 && !fresh {
		// Reusing a retained empty slab.
		c.empties--
	}
	idx := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	w, b := s.bit(idx)
	*w &^= b
	s.inUse++
	if len(s.free) == 0 {
		// Slab became full; drop it from the partial stack if it is the
		// top (otherwise lazily skipped later).
		if n := len(c.partial); n > 0 && c.partial[n-1] == s.base {
			c.partial = c.partial[:n-1]
		}
	}
	c.allocs++
	return ObjRef{SlabBase: s.base, Index: idx}, nil
}

// Free releases one object. When a slab becomes empty and the cache
// already retains maxEmptySlabs empty slabs, the slab's pages go back to
// the page allocator.
func (c *Cache) Free(ref ObjRef) {
	i, ok := c.find(ref.SlabBase)
	if !ok {
		panic(fmt.Sprintf("slab %s: free of object in unknown slab %d", c.name, ref.SlabBase))
	}
	s := c.slabs[i]
	if ref.Index < 0 || ref.Index >= s.capacity {
		panic(fmt.Sprintf("slab %s: object index %d out of range", c.name, ref.Index))
	}
	w, b := s.bit(ref.Index)
	if *w&b != 0 {
		panic(fmt.Sprintf("slab %s: double free of object %d in slab %d", c.name, ref.Index, s.base))
	}
	*w |= b
	wasFull := len(s.free) == 0
	s.free = append(s.free, ref.Index)
	s.inUse--
	c.frees++
	if s.inUse == 0 {
		if c.empties >= maxEmptySlabs {
			c.slabs = slices.Delete(c.slabs, i, i+1)
			c.put(s.base, c.pagesPerSlab)
			c.slabFrees++
			return
		}
		c.empties++
	}
	if wasFull {
		c.partial = append(c.partial, s.base)
	}
}

// Stats reports object allocs/frees and slab-level page churn.
func (c *Cache) Stats() (allocs, frees, slabAllocs, slabFrees uint64) {
	return c.allocs, c.frees, c.slabAllocs, c.slabFrees
}

// CheckInvariants validates per-slab accounting: slabs in ascending
// base order, each one's free stack holding distinct in-range indexes
// that match its free mask, and the empty-slab count.
func (c *Cache) CheckInvariants() error {
	empties := 0
	for i, s := range c.slabs {
		if i > 0 && c.slabs[i-1].base >= s.base {
			return fmt.Errorf("slab %s: slab %d listed after %d", c.name, s.base, c.slabs[i-1].base)
		}
		if s.inUse+len(s.free) != s.capacity {
			return fmt.Errorf("slab %s: slab %d inUse %d + free %d != cap %d",
				c.name, s.base, s.inUse, len(s.free), s.capacity)
		}
		if err := s.checkMask(); err != nil {
			return fmt.Errorf("slab %s: %w", c.name, err)
		}
		if s.inUse == 0 {
			empties++
		}
	}
	if empties != c.empties {
		return fmt.Errorf("slab %s: empty count %d != tracked %d", c.name, empties, c.empties)
	}
	return nil
}

// checkMask verifies that the free stack holds distinct indexes below
// capacity and that the mask has exactly their bits set.
func (s *slabState) checkMask() error {
	mask, more := s.mask, slices.Clone(s.more)
	for _, f := range s.free {
		if f < 0 || f >= s.capacity {
			return fmt.Errorf("bad free index %d in slab %d", f, s.base)
		}
		w := &mask
		if f >= 64 {
			w = &more[(f-64)>>6]
		}
		if *w&(1<<(f&63)) == 0 {
			return fmt.Errorf("bad free index %d in slab %d: repeated or missing from the free mask", f, s.base)
		}
		*w &^= 1 << (f & 63)
	}
	off := bits.OnesCount64(mask)
	for _, w := range more {
		off += bits.OnesCount64(w)
	}
	if off != 0 {
		return fmt.Errorf("free mask of slab %d marks %d objects off the free stack", s.base, off)
	}
	return nil
}
