// Package pagecache implements the I/O page and buffer cache. Section 3.2
// of the paper shows the page cache is central to storage-intensive
// applications (LevelDB's memory-mapped database, X-Stream's mapped graph
// input): the cache absorbs reads through readahead and buffers dirty
// blocks for writeback, and placing its pages in FastMem hides the
// latency of slow disks.
//
// The cache is generic over uint64 frame numbers below a fixed span; it
// obtains and returns frames through callbacks so the owning OS can
// route allocations through its placement policy and keep per-page
// metadata in sync.
//
// Its indexes hold no Go maps. Each file's offset → frame index is a
// radix of 512-entry chunks allocated on first use (Linux's xarray);
// the reverse frame → (file, offset) map is one 8-byte column over the
// span, allocated at the first insert, so a guest that never does file
// I/O pays nothing; the dirty set is a bitset walked in frame order.
package pagecache

import (
	"fmt"
	"math"

	"heteroos/internal/bitset"
)

// AllocPage obtains one frame for a cache page; ok=false means the page
// allocator (and any reclaim behind it) is exhausted.
type AllocPage func() (pfn uint64, ok bool)

// FreePage returns one frame.
type FreePage func(pfn uint64)

// FileID identifies a cached file.
type FileID uint32

// maxOffset is the largest cacheable page offset: the reverse map keeps
// offsets in 32 bits.
const maxOffset = math.MaxUint32

// Radix geometry. A chunk maps 512 consecutive offsets to frames; a
// directory holds 512 chunks; a file's top level, indexed by
// off >> (chunkBits+dirBits), grows to at most 2^14 directories.
const (
	chunkBits = 9
	dirBits   = 9
	chunkLen  = 1 << chunkBits
	dirLen    = 1 << dirBits
)

// chunk holds pfn+1 per offset (0: not cached) and its live count.
type chunk struct {
	slot [chunkLen]uint32
	live int
}

type dir [dirLen]*chunk

// file is one cached file's forward index.
type file struct {
	id    FileID
	slot  uint32 // its rmap cell value: table index plus one
	pages int
	dirs  []*dir
}

// rmapEntry is one frame's reverse-map cell: the caching file's table
// index plus one (0: the frame is not a cache page) and its offset.
type rmapEntry struct {
	file uint32
	off  uint32
}

// Cache is the page cache.
type Cache struct {
	alloc AllocPage
	free  FreePage
	span  uint64

	files []*file     // file table; rmap cells index it
	last  *file       // the file looked up last
	spare []*chunk    // emptied chunks, reused before allocating
	rmap  []rmapEntry // per frame; nil until the first insert
	dirty bitset.Set  // frames with unwritten data; empty until the first insert
	pages int
	ndirt int

	// ReadaheadWindow is how many consecutive pages a miss pulls in
	// (Linux default readahead is 128 KiB = 32 pages).
	ReadaheadWindow int
}

// New builds an empty cache over frames [0, span) with the default
// 32-page readahead window. It allocates no per-frame state.
func New(span uint64, alloc AllocPage, free FreePage) *Cache {
	return &Cache{alloc: alloc, free: free, span: span, ReadaheadWindow: 32}
}

// ReadResult reports the outcome of a Read or Write.
type ReadResult struct {
	// Touched is the caller's buffer with the frames servicing the
	// request appended, in offset order.
	Touched []uint64
	// DiskPages is how many pages had to come from (or be reserved for)
	// the backing store — the caller charges disk latency for them.
	DiskPages int
	// AllocFailed counts pages that could not get a frame; the caller
	// treats them as uncached direct I/O.
	AllocFailed int
}

// fileOf returns file id's index, creating it if create is set.
func (c *Cache) fileOf(id FileID, create bool) *file {
	if f := c.last; f != nil && f.id == id {
		return f
	}
	for _, f := range c.files {
		if f.id == id {
			c.last = f
			return f
		}
	}
	if !create {
		return nil
	}
	f := &file{id: id, slot: uint32(len(c.files)) + 1}
	c.files = append(c.files, f)
	c.last = f
	return f
}

// get returns the frame caching off plus one, or 0.
func (f *file) get(off uint64) uint32 {
	top := off >> (chunkBits + dirBits)
	if top >= uint64(len(f.dirs)) || f.dirs[top] == nil {
		return 0
	}
	ch := f.dirs[top][off>>chunkBits&(dirLen-1)]
	if ch == nil {
		return 0
	}
	return ch.slot[off&(chunkLen-1)]
}

// Lookup returns the frame caching (file, off), if any.
func (c *Cache) Lookup(file FileID, off uint64) (uint64, bool) {
	f := c.fileOf(file, false)
	if f == nil {
		return 0, false
	}
	v := f.get(off)
	return uint64(v) - 1, v != 0
}

// setFwd points f's entry for off at pfn, allocating the radix path.
func (c *Cache) setFwd(f *file, off, pfn uint64) {
	top := off >> (chunkBits + dirBits)
	if top >= uint64(len(f.dirs)) {
		f.dirs = append(f.dirs, make([]*dir, top+1-uint64(len(f.dirs)))...)
	}
	d := f.dirs[top]
	if d == nil {
		d = new(dir)
		f.dirs[top] = d
	}
	ch := d[off>>chunkBits&(dirLen-1)]
	if ch == nil {
		if n := len(c.spare); n > 0 {
			ch, c.spare = c.spare[n-1], c.spare[:n-1]
		} else {
			ch = new(chunk)
		}
		d[off>>chunkBits&(dirLen-1)] = ch
	}
	s := &ch.slot[off&(chunkLen-1)]
	if *s == 0 {
		ch.live++
		f.pages++
	}
	*s = uint32(pfn) + 1
}

// dropFwd clears f's entry for off, which must be cached, and recycles
// the chunk it empties.
func (c *Cache) dropFwd(f *file, off uint64) {
	d := f.dirs[off>>(chunkBits+dirBits)]
	i := off >> chunkBits & (dirLen - 1)
	ch := d[i]
	ch.slot[off&(chunkLen-1)] = 0
	f.pages--
	if ch.live--; ch.live == 0 {
		d[i] = nil
		c.spare = append(c.spare, ch)
	}
}

func (c *Cache) insert(file FileID, off uint64, pfn uint64) {
	if off > maxOffset {
		panic(fmt.Sprintf("pagecache: page offset %d exceeds %d", off, uint64(maxOffset)))
	}
	if pfn >= c.span {
		panic(fmt.Sprintf("pagecache: frame %d outside span %d", pfn, c.span))
	}
	if c.rmap == nil {
		c.rmap = make([]rmapEntry, c.span)
		c.dirty = bitset.New(c.span)
	}
	f := c.fileOf(file, true)
	c.setFwd(f, off, pfn)
	c.rmap[pfn] = rmapEntry{file: f.slot, off: uint32(off)}
	c.pages++
}

// Read services a read of n pages of file starting at page offset off,
// appending the frames it touches to dst. Missing pages are allocated
// and "read from disk"; a miss additionally pulls in the readahead
// window beyond the requested range (sequential readahead), which is
// what gives the cache its prefetch benefit. Readahead stops at the
// last cacheable offset; a demand page beyond it panics.
func (c *Cache) Read(dst []uint64, file FileID, off uint64, n int) ReadResult {
	res := ReadResult{Touched: dst}
	missed := false
	for i := 0; i < n; i++ {
		pfn, ok := c.Lookup(file, off+uint64(i))
		if ok {
			res.Touched = append(res.Touched, pfn)
			continue
		}
		missed = true
		pfn, ok = c.alloc()
		if !ok {
			res.AllocFailed++
			res.DiskPages++ // still read, just uncached
			continue
		}
		c.insert(file, off+uint64(i), pfn)
		res.Touched = append(res.Touched, pfn)
		res.DiskPages++
	}
	if missed && c.ReadaheadWindow > 0 {
		start := off + uint64(n)
		for i := 0; i < c.ReadaheadWindow; i++ {
			o := start + uint64(i)
			if o > maxOffset {
				break // the last cacheable offset
			}
			if _, ok := c.Lookup(file, o); ok {
				break // already cached: readahead window reached cached tail
			}
			pfn, ok := c.alloc()
			if !ok {
				break // no memory: stop prefetching, do not fail the read
			}
			c.insert(file, o, pfn)
			res.Touched = append(res.Touched, pfn)
			res.DiskPages++
		}
	}
	return res
}

// Write services a write of n pages of file starting at page offset
// off, appending the frames it touches to dst. Pages are cached and
// marked dirty; writeback happens asynchronously via Writeback.
func (c *Cache) Write(dst []uint64, file FileID, off uint64, n int) ReadResult {
	res := ReadResult{Touched: dst}
	for i := 0; i < n; i++ {
		o := off + uint64(i)
		pfn, ok := c.Lookup(file, o)
		if !ok {
			pfn, ok = c.alloc()
			if !ok {
				res.AllocFailed++
				res.DiskPages++ // direct write to disk
				continue
			}
			c.insert(file, o, pfn)
		}
		if !c.dirty.Has(pfn) {
			c.dirty.Add(pfn)
			c.ndirt++
		}
		res.Touched = append(res.Touched, pfn)
	}
	return res
}

// Writeback flushes up to max dirty pages (all if max <= 0) in
// ascending frame order, appending the flushed frames to dst so the
// caller can charge disk-write time.
func (c *Cache) Writeback(dst []uint64, max int) []uint64 {
	var from uint64
	for n := 0; max <= 0 || n < max; n++ {
		pfn, ok := c.dirty.Next(from)
		if !ok {
			break
		}
		from = pfn + 1
		c.dirty.Remove(pfn)
		c.ndirt--
		dst = append(dst, pfn)
	}
	return dst
}

// Dirty reports whether pfn holds unwritten data.
func (c *Cache) Dirty(pfn uint64) bool { return c.dirty.Has(pfn) }

// entry returns pfn's reverse-map cell, or ok=false if pfn is not a
// cache page.
func (c *Cache) entry(pfn uint64) (rmapEntry, bool) {
	if pfn >= uint64(len(c.rmap)) {
		return rmapEntry{}, false
	}
	e := c.rmap[pfn]
	return e, e.file != 0
}

// Evict removes the cache page backed by pfn, returning its frame to the
// allocator. Dirty pages are written back first (the returned bool
// reports whether a disk write was required). Evicting a frame the cache
// does not own panics.
func (c *Cache) Evict(pfn uint64) (wroteBack bool) {
	e, ok := c.entry(pfn)
	if !ok {
		panic(fmt.Sprintf("pagecache: evict of unowned frame %d", pfn))
	}
	if c.dirty.Has(pfn) {
		c.dirty.Remove(pfn)
		c.ndirt--
		wroteBack = true
	}
	c.dropFwd(c.files[e.file-1], uint64(e.off))
	c.rmap[pfn] = rmapEntry{}
	c.pages--
	c.free(pfn)
	return wroteBack
}

// Rekey transfers the cache page backed by oldPfn to newPfn, preserving
// identity and dirty state. The page-migration path uses it after
// copying contents to a frame on another tier. Rekeying a frame the
// cache does not own, or onto a cached frame or one outside the span,
// panics.
func (c *Cache) Rekey(oldPfn, newPfn uint64) {
	e, ok := c.entry(oldPfn)
	if !ok {
		panic(fmt.Sprintf("pagecache: rekey of unowned frame %d", oldPfn))
	}
	if newPfn >= c.span {
		panic(fmt.Sprintf("pagecache: rekey target %d outside span %d", newPfn, c.span))
	}
	if c.rmap[newPfn].file != 0 {
		panic(fmt.Sprintf("pagecache: rekey target %d already cached", newPfn))
	}
	c.rmap[oldPfn] = rmapEntry{}
	c.rmap[newPfn] = e
	c.setFwd(c.files[e.file-1], uint64(e.off), newPfn)
	if c.dirty.Has(oldPfn) {
		c.dirty.Remove(oldPfn)
		c.dirty.Add(newPfn)
	}
}

// Owns reports whether pfn is a cache page.
func (c *Cache) Owns(pfn uint64) bool {
	_, ok := c.entry(pfn)
	return ok
}

// CheckInvariants validates that the forward radixes and the reverse
// map describe the same pages, that the page and chunk counts match
// them, and that every dirty page is a cached page.
func (c *Cache) CheckInvariants() error {
	fwd := 0
	for _, f := range c.files {
		n := 0
		for top, d := range f.dirs {
			if d == nil {
				continue
			}
			for di, ch := range d {
				if ch == nil {
					continue
				}
				live := 0
				for si, v := range ch.slot {
					if v == 0 {
						continue
					}
					live++
					off := uint64(top)<<(chunkBits+dirBits) | uint64(di)<<chunkBits | uint64(si)
					e, ok := c.entry(uint64(v) - 1)
					if !ok || e.file != f.slot || uint64(e.off) != off {
						return fmt.Errorf("pagecache: frame %d rmap mismatch (%d@%d)", v-1, f.id, off)
					}
				}
				if live == 0 || live != ch.live {
					return fmt.Errorf("pagecache: file %d chunk %d holds %d pages, counts %d", f.id, top<<dirBits|di, live, ch.live)
				}
				n += live
			}
		}
		if n != f.pages {
			return fmt.Errorf("pagecache: file %d indexes %d pages, counts %d", f.id, n, f.pages)
		}
		fwd += n
	}
	rev := 0
	for _, e := range c.rmap {
		if e.file != 0 {
			rev++
		}
	}
	if fwd != rev || rev != c.pages {
		return fmt.Errorf("pagecache: forward map %d entries, rmap %d, count %d", fwd, rev, c.pages)
	}
	if c.rmap == nil {
		return nil // nothing inserted yet, so no dirty set either
	}
	if err := c.dirty.Check(c.span); err != nil {
		return fmt.Errorf("pagecache: dirty set: %w", err)
	}
	dirty := 0
	for pfn, ok := c.dirty.Next(0); ok; pfn, ok = c.dirty.Next(pfn + 1) {
		if !c.Owns(pfn) {
			return fmt.Errorf("pagecache: dirty frame %d not cached", pfn)
		}
		dirty++
	}
	if dirty != c.ndirt {
		return fmt.Errorf("pagecache: dirty set holds %d frames, counts %d", dirty, c.ndirt)
	}
	return nil
}
