package pagecache

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"heteroos/internal/snapshot"
)

// model is a map-based page cache: the representation the dense
// indexes replaced, kept here as the reference TestDifferential drives
// them against. Its rules are Cache's, stated over maps and sorts.
type model struct {
	alloc AllocPage
	free  FreePage

	files map[FileID]map[uint64]uint64 // file → page offset → pfn
	rmap  map[uint64]modelPage         // pfn → identity
	dirty map[uint64]struct{}

	readahead int
}

type modelPage struct {
	file  FileID
	off   uint64
	dirty bool
}

func newModel(alloc AllocPage, free FreePage, readahead int) *model {
	return &model{
		alloc: alloc, free: free, readahead: readahead,
		files: map[FileID]map[uint64]uint64{},
		rmap:  map[uint64]modelPage{},
		dirty: map[uint64]struct{}{},
	}
}

func (m *model) lookup(file FileID, off uint64) (uint64, bool) {
	pfn, ok := m.files[file][off]
	return pfn, ok
}

func (m *model) insert(file FileID, off, pfn uint64) {
	if m.files[file] == nil {
		m.files[file] = map[uint64]uint64{}
	}
	m.files[file][off] = pfn
	m.rmap[pfn] = modelPage{file: file, off: off}
}

func (m *model) read(file FileID, off uint64, n int) ReadResult {
	var res ReadResult
	missed := false
	for i := 0; i < n; i++ {
		if pfn, ok := m.lookup(file, off+uint64(i)); ok {
			res.Touched = append(res.Touched, pfn)
			continue
		}
		missed = true
		pfn, ok := m.alloc()
		if !ok {
			res.AllocFailed++
			res.DiskPages++
			continue
		}
		m.insert(file, off+uint64(i), pfn)
		res.Touched = append(res.Touched, pfn)
		res.DiskPages++
	}
	if missed {
		for i := 0; i < m.readahead; i++ {
			o := off + uint64(n) + uint64(i)
			if o > maxOffset {
				break
			}
			if _, ok := m.lookup(file, o); ok {
				break
			}
			pfn, ok := m.alloc()
			if !ok {
				break
			}
			m.insert(file, o, pfn)
			res.Touched = append(res.Touched, pfn)
			res.DiskPages++
		}
	}
	return res
}

func (m *model) write(file FileID, off uint64, n int) ReadResult {
	var res ReadResult
	for i := 0; i < n; i++ {
		o := off + uint64(i)
		pfn, ok := m.lookup(file, o)
		if !ok {
			if pfn, ok = m.alloc(); !ok {
				res.AllocFailed++
				res.DiskPages++
				continue
			}
			m.insert(file, o, pfn)
		}
		p := m.rmap[pfn]
		p.dirty = true
		m.rmap[pfn] = p
		m.dirty[pfn] = struct{}{}
		res.Touched = append(res.Touched, pfn)
	}
	return res
}

func (m *model) writeback(max int) []uint64 {
	var out []uint64
	for pfn := range m.dirty {
		out = append(out, pfn)
	}
	slices.Sort(out)
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	for _, pfn := range out {
		p := m.rmap[pfn]
		p.dirty = false
		m.rmap[pfn] = p
		delete(m.dirty, pfn)
	}
	return out
}

func (m *model) evict(pfn uint64) bool {
	p := m.rmap[pfn]
	if p.dirty {
		delete(m.dirty, pfn)
	}
	delete(m.files[p.file], p.off)
	delete(m.rmap, pfn)
	m.free(pfn)
	return p.dirty
}

func (m *model) rekey(oldPfn, newPfn uint64) {
	p := m.rmap[oldPfn]
	delete(m.rmap, oldPfn)
	m.rmap[newPfn] = p
	m.files[p.file][p.off] = newPfn
	if p.dirty {
		delete(m.dirty, oldPfn)
		m.dirty[newPfn] = struct{}{}
	}
}

// frames returns the cached frames in ascending order.
func (m *model) frames() []uint64 {
	out := make([]uint64, 0, len(m.rmap))
	for pfn := range m.rmap {
		out = append(out, pfn)
	}
	slices.Sort(out)
	return out
}

// state writes the section body Cache.SnapshotState writes for the
// same cache.
func (m *model) state(c *snapshot.Codec) error {
	n := len(m.rmap)
	c.Int(&m.readahead)
	c.Len(&n)
	for _, pfn := range m.frames() {
		p := m.rmap[pfn]
		file := uint32(p.file)
		c.U64(&pfn)
		c.U32(&file)
		c.U64(&p.off)
		c.Bool(&p.dirty)
	}
	return nil
}

// reusePool hands out frames below span, reusing freed ones last-in
// first-out, with at most limit out at once.
type reusePool struct {
	next, span uint64
	limit, out int
	freed      []uint64
}

func (p *reusePool) alloc() (uint64, bool) {
	if p.out >= p.limit {
		return 0, false
	}
	if n := len(p.freed); n > 0 {
		p.out++
		pfn := p.freed[n-1]
		p.freed = p.freed[:n-1]
		return pfn, true
	}
	if p.next >= p.span {
		return 0, false
	}
	p.out++
	p.next++
	return p.next - 1, true
}

func (p *reusePool) free(pfn uint64) {
	p.out--
	p.freed = append(p.freed, pfn)
}

// TestDifferential drives long seeded random sequences of Read, Write,
// Writeback, Evict and Rekey through a Cache and the map-based model,
// each with its own frame pool, and requires the same Touched lists,
// disk and failure counts, writeback order, eviction write-backs,
// identities, dirty bits, stats and SnapshotState bytes throughout.
// Offsets cluster near chunk and directory edges and near the 32-bit
// limit, and the pool runs dry, so readahead and direct I/O both cut in.
func TestDifferential(t *testing.T) {
	const span = 1 << 12
	edges := []uint64{0, chunkLen - 3, chunkLen<<dirBits - 5, 1<<32 - 80}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		limit := 64 + rng.Intn(400)
		pc, pm := &reusePool{span: span, limit: limit}, &reusePool{span: span, limit: limit}
		window := rng.Intn(40)
		c := New(span, pc.alloc, pc.free)
		c.ReadaheadWindow = window
		m := newModel(pm.alloc, pm.free, window)
		files := []FileID{1, 2, 9, 1 << 31}
		var buf []uint64
		for step := 0; step < 4000; step++ {
			file := files[rng.Intn(len(files))]
			off := edges[rng.Intn(len(edges))] + uint64(rng.Intn(64))
			n := 1 + rng.Intn(12)
			where := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(10); {
			case op < 4:
				got := c.Read(buf[:0], file, off, n)
				buf = got.Touched
				sameResult(t, where+" read", got, m.read(file, off, n))
			case op < 7:
				got := c.Write(buf[:0], file, off, n)
				buf = got.Touched
				sameResult(t, where+" write", got, m.write(file, off, n))
			case op == 7:
				max := rng.Intn(6)
				buf = c.Writeback(buf[:0], max)
				if want := m.writeback(max); !slices.Equal(buf, want) {
					t.Fatalf("%s: Writeback(%d) = %v, model %v", where, max, buf, want)
				}
			case op == 8:
				frames := m.frames()
				for k := rng.Intn(4); k > 0 && len(frames) > 0; k-- {
					i := rng.Intn(len(frames))
					pfn := frames[i]
					frames = slices.Delete(frames, i, i+1)
					if g, w := c.Evict(pfn), m.evict(pfn); g != w {
						t.Fatalf("%s: Evict(%d) wrote back %v, model %v", where, pfn, g, w)
					}
				}
			default:
				frames := m.frames()
				if len(frames) == 0 {
					continue
				}
				oldPfn := frames[rng.Intn(len(frames))]
				to, ok := pc.alloc()
				if mto, mok := pm.alloc(); mto != to || mok != ok {
					t.Fatalf("%s: pools diverged", where)
				}
				if !ok {
					continue
				}
				c.Rekey(oldPfn, to)
				m.rekey(oldPfn, to)
				pc.free(oldPfn)
				pm.free(oldPfn)
			}
			if step%97 == 0 {
				sameCache(t, where, c, m)
			}
		}
		sameCache(t, fmt.Sprintf("seed %d end", seed), c, m)
	}
}

func sameResult(t *testing.T, where string, got, want ReadResult) {
	t.Helper()
	if !slices.Equal(got.Touched, want.Touched) || got.DiskPages != want.DiskPages || got.AllocFailed != want.AllocFailed {
		t.Fatalf("%s: got %+v, model %+v", where, got, want)
	}
}

// sameCache compares every observable of c with the model's.
func sameCache(t *testing.T, where string, c *Cache, m *model) {
	t.Helper()
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if c.Pages() != len(m.rmap) || c.DirtyCount() != len(m.dirty) {
		t.Fatalf("%s: %d pages %d dirty, model %d %d", where, c.Pages(), c.DirtyCount(), len(m.rmap), len(m.dirty))
	}
	for pfn := uint64(0); pfn < c.span; pfn++ {
		p, ok := m.rmap[pfn]
		f, off, cok := c.Identity(pfn)
		if cok != ok || f != p.file || off != p.off || c.Dirty(pfn) != p.dirty || c.Owns(pfn) != ok {
			t.Fatalf("%s: frame %d identity %d@%d %v dirty %v, model %+v %v", where, pfn, f, off, cok, c.Dirty(pfn), p, ok)
		}
	}
	for file, offs := range m.files {
		if c.FilePages(file) != len(offs) {
			t.Fatalf("%s: file %d has %d pages, model %d", where, file, c.FilePages(file), len(offs))
		}
	}
	want := snapshotFile(t, func(w *snapshot.Writer) error { return w.State("pagecache", m.state) })
	if !bytes.Equal(stateFile(t, c), want) {
		t.Fatalf("%s: SnapshotState bytes differ from the model's", where)
	}
}
