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

// rawFile frames body through the raw section seam.
func rawFile(tb testing.TB, body []byte) []byte {
	tb.Helper()
	return snapshotFile(tb, func(w *snapshot.Writer) error {
		return w.Section("pagecache", func(e *snapshot.Encoder) {
			for _, b := range body {
				e.U8(b)
			}
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
	c := New(p.alloc, p.free)
	c.ReadaheadWindow = 4
	c.Read(1, 0, 6)
	c.Write(2, 10, 5)
	c.Write(1, 2, 3)
	c.Writeback(2)
	c.Write(3, 0, 4)
	r := c.Read(3, 20, 2)
	c.Evict(r.Touched[0])
	return c
}

// adopt marks every frame c caches as allocated from p, so p hands out
// only frames above them and accepts them back on eviction.
func adopt(p *framePool, c *Cache) {
	for pfn := range c.rmap {
		p.out[pfn] = true
		p.next = max(p.next, pfn+1)
	}
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
	got := New(p.alloc, p.free)
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
		if g, w := got.Writeback(max), orig.Writeback(max); !slices.Equal(g, w) {
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

// TestRestoreRejectsCorruptState requires reading a reverse map with
// two frames caching the same file page to fail: the forward map could
// hold only one of them.
func TestRestoreRejectsCorruptState(t *testing.T) {
	c := dirtied(newFramePool(0))
	a, _ := c.Lookup(2, 10)
	b, _ := c.Lookup(2, 11)
	c.rmap[b] = c.rmap[a]
	err := restoreFile(t, New(newFramePool(0).alloc, nil), stateFile(t, c))
	if err == nil || !strings.Contains(err.Error(), "forward map") {
		t.Fatalf("restore = %v, want a forward-map error", err)
	}
}

// FuzzRestore feeds SnapshotState arbitrary section bodies through the
// raw Writer.Section seam. Whatever it accepts must pass
// CheckInvariants and survive a short Read/Write/Evict sequence.
func FuzzRestore(f *testing.F) {
	c := dirtied(newFramePool(0))
	f.Add(sectionBody(f, stateFile(f, c)))
	a, _ := c.Lookup(2, 10)
	b, _ := c.Lookup(2, 11)
	c.rmap[b] = c.rmap[a]
	f.Add(sectionBody(f, stateFile(f, c)))
	f.Fuzz(func(t *testing.T, body []byte) {
		p := newFramePool(0)
		c := New(p.alloc, p.free)
		if restoreFile(t, c, rawFile(t, body)) != nil {
			return
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("restore accepted a state CheckInvariants rejects: %v", err)
		}
		if _, ok := c.rmap[^uint64(0)]; ok {
			return // no frame above it for the pool to hand out
		}
		adopt(p, c)
		p.limit = len(p.out) + 16 // bounds a huge readahead window
		r := c.Read(1, 0, 3)
		c.Write(2, 5, 2)
		for _, pfn := range r.Touched {
			if c.Owns(pfn) {
				c.Evict(pfn)
			}
		}
		c.Writeback(1)
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("after a Read/Write/Evict sequence: %v", err)
		}
	})
}
