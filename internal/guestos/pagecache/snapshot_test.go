package pagecache

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"heteroos/internal/snapshot"
)

// stateFile frames c's SnapshotState as a complete snapshot file.
func stateFile(tb testing.TB, c *Cache) []byte {
	tb.Helper()
	return snapshotFile(tb, func(w *snapshot.Writer) error { return w.State("pagecache", c.SnapshotState) })
}

// rawFile frames body, written byte by byte, as the pagecache section.
func rawFile(tb testing.TB, body []byte) []byte {
	tb.Helper()
	return snapshotFile(tb, func(w *snapshot.Writer) error {
		return w.State("pagecache", func(c *snapshot.Codec) error {
			for i := range body {
				c.U8(&body[i])
			}
			return nil
		})
	})
}

func snapshotFile(tb testing.TB, section func(*snapshot.Writer) error) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	if err := section(w); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// restoreFile reads a snapshot file's page-cache section into c.
func restoreFile(tb testing.TB, c *Cache, file []byte) error {
	tb.Helper()
	r, err := snapshot.Open(bytes.NewReader(file))
	if err != nil {
		tb.Fatal(err)
	}
	return r.State("pagecache", c.SnapshotState)
}

// sectionBody returns a snapshot file's page-cache section body.
func sectionBody(tb testing.TB, file []byte) []byte {
	tb.Helper()
	r, err := snapshot.Open(bytes.NewReader(file))
	if err != nil {
		tb.Fatal(err)
	}
	b, _ := r.Raw("pagecache")
	return b
}

// dirtied returns a cache holding clean and dirty pages of three files,
// some dirty pages already written back and some evicted.
func dirtied(p *framePool) *Cache {
	c := New(testSpan, p.alloc, p.free)
	c.ReadaheadWindow = 4
	c.Read(nil, 1, 0, 6)
	c.Write(nil, 2, 10, 5)
	c.Write(nil, 1, 2, 3)
	c.Writeback(nil, 2)
	c.Write(nil, 3, 0, 4)
	r := c.Read(nil, 3, 20, 2)
	c.Evict(r.Touched[0])
	return c
}

// adopt marks every frame c caches as allocated from p, so p hands out
// only frames above them and accepts them back on eviction.
func adopt(p *framePool, c *Cache) {
	for pfn := uint64(0); pfn < testSpan; pfn++ {
		if c.Owns(pfn) {
			p.out[pfn] = true
			p.next = max(p.next, pfn+1)
		}
	}
}

// rawPage is one cached page as SnapshotState codes it.
type rawPage struct {
	pfn   uint64
	file  uint32
	off   uint64
	dirty bool
}

// pagesBody encodes a section body holding pages, in the given order,
// with a readahead window of 4.
func pagesBody(pages ...rawPage) []byte {
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf)
	if err != nil {
		panic(err)
	}
	err = w.State("pagecache", func(c *snapshot.Codec) error {
		window, n := 4, len(pages)
		c.Int(&window)
		c.Len(&n)
		for i := range pages {
			p := &pages[i]
			c.U64(&p.pfn)
			c.U32(&p.file)
			c.U64(&p.off)
			c.Bool(&p.dirty)
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestSnapshotRoundTripDirty restores a cache with dirty pages: the
// rebuilt dirty set must match the original's count and write back in
// the same order, and the cache must then behave like the original.
func TestSnapshotRoundTripDirty(t *testing.T) {
	orig := dirtied(newFramePool(0))
	if orig.DirtyCount() == 0 {
		t.Fatal("the fixture has no dirty pages")
	}
	file := stateFile(t, orig)
	p := newFramePool(0)
	got := New(testSpan, p.alloc, p.free)
	if err := restoreFile(t, got, file); err != nil {
		t.Fatal(err)
	}
	adopt(p, got)
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got.DirtyCount() != orig.DirtyCount() {
		t.Fatalf("restored %d dirty pages, original has %d", got.DirtyCount(), orig.DirtyCount())
	}
	if !bytes.Equal(stateFile(t, got), file) {
		t.Fatal("re-snapshot differs from the original")
	}
	for _, max := range []int{3, 0} {
		if g, w := got.Writeback(nil, max), orig.Writeback(nil, max); !slices.Equal(g, w) {
			t.Fatalf("Writeback(%d) = %v, original %v", max, g, w)
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if got.DirtyCount() != 0 {
		t.Fatalf("%d dirty pages after a full writeback", got.DirtyCount())
	}
}

// TestRestoreRejectsCorruptState requires every page list the
// indexes cannot hold to fail to restore: a frame outside the span
// (the reverse-map column would have to grow to it), a frame repeated
// or out of ascending order, an offset wider than 32 bits, and two
// frames caching one file page (the forward map could hold only one of
// them). A well-formed list restores.
func TestRestoreRejectsCorruptState(t *testing.T) {
	ok := []rawPage{{1, 7, 0, false}, {2, 7, 1, true}, {9, 8, 0, false}}
	if err := restoreFile(t, New(testSpan, nil, nil), pagesBody(ok...)); err != nil {
		t.Fatalf("well-formed pages: %v", err)
	}
	cases := []struct {
		name, want string
		pages      []rawPage
	}{
		{"frame at span", "outside span", []rawPage{{1, 7, 0, false}, {testSpan, 7, 1, false}}},
		{"frame past span", "outside span", []rawPage{{1 << 40, 7, 0, false}}},
		{"duplicate frame", "follows", []rawPage{{1, 7, 0, false}, {1, 7, 1, false}}},
		{"descending frames", "follows", []rawPage{{5, 7, 0, false}, {3, 7, 1, false}}},
		{"wide offset", "exceeds", []rawPage{{1, 7, 1 << 32, false}}},
		{"duplicate file page", "forward map", []rawPage{{1, 7, 4, false}, {2, 8, 4, false}, {3, 7, 4, true}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := restoreFile(t, New(testSpan, nil, nil), pagesBody(tc.pages...))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore = %v, want an error containing %q", err, tc.want)
			}
		})
	}
	// A cache written with two frames caching one page fails the same way.
	c := dirtied(newFramePool(0))
	a, _ := c.Lookup(2, 10)
	b, _ := c.Lookup(2, 11)
	c.rmap[b] = c.rmap[a]
	err := restoreFile(t, New(testSpan, nil, nil), stateFile(t, c))
	if err == nil || !strings.Contains(err.Error(), "forward map") {
		t.Fatalf("restore = %v, want a forward-map error", err)
	}
}

// FuzzRestore feeds SnapshotState arbitrary section bodies, written
// byte by byte through Writer.State. Whatever it accepts must pass
// CheckInvariants and survive a short Read/Write/Evict sequence.
func FuzzRestore(f *testing.F) {
	c := dirtied(newFramePool(0))
	f.Add(sectionBody(f, stateFile(f, c)))
	a, _ := c.Lookup(2, 10)
	b, _ := c.Lookup(2, 11)
	c.rmap[b] = c.rmap[a]
	f.Add(sectionBody(f, stateFile(f, c)))
	for _, pages := range [][]rawPage{{{testSpan, 1, 0, false}}, {{3, 1, 0, true}, {3, 1, 1, false}}} {
		f.Add(sectionBody(f, pagesBody(pages...)))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		p := newFramePool(0)
		c := New(testSpan, p.alloc, p.free)
		if restoreFile(t, c, rawFile(t, body)) != nil {
			return
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("restore accepted a state CheckInvariants rejects: %v", err)
		}
		adopt(p, c)
		p.limit = len(p.out) + 16 // bounds a huge readahead window
		r := c.Read(nil, 1, 0, 3)
		c.Write(nil, 2, 5, 2)
		for _, pfn := range r.Touched {
			if c.Owns(pfn) {
				c.Evict(pfn)
			}
		}
		c.Writeback(nil, 1)
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("after a Read/Write/Evict sequence: %v", err)
		}
	})
}
