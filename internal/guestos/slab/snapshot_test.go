package slab

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"heteroos/internal/snapshot"
)

// stateFile frames c's SnapshotState as a complete snapshot file.
func stateFile(tb testing.TB, c *Cache) []byte {
	tb.Helper()
	return snapshotFile(tb, func(w *snapshot.Writer) error { return w.State("slab", c.SnapshotState) })
}

// rawFile frames body, written byte by byte, as the slab section.
func rawFile(tb testing.TB, body []byte) []byte {
	tb.Helper()
	return snapshotFile(tb, func(w *snapshot.Writer) error {
		return w.State("slab", func(c *snapshot.Codec) error {
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

// restoreFile reads a snapshot file's slab section into c.
func restoreFile(tb testing.TB, c *Cache, file []byte) error {
	tb.Helper()
	r, err := snapshot.Open(bytes.NewReader(file))
	if err != nil {
		tb.Fatal(err)
	}
	return r.State("slab", c.SnapshotState)
}

// sectionBody returns a snapshot file's slab section body.
func sectionBody(tb testing.TB, file []byte) []byte {
	tb.Helper()
	r, err := snapshot.Open(bytes.NewReader(file))
	if err != nil {
		tb.Fatal(err)
	}
	b, _ := r.Raw("slab")
	return b
}

// slabAt returns the live slab based at base.
func slabAt(c *Cache, base uint64) *slabState {
	i, ok := c.find(base)
	if !ok {
		panic("no slab at that base")
	}
	return c.slabs[i]
}

// churned returns a 21-object-per-slab cache after a seeded run of
// allocations and frees, with the objects still live.
func churned(p *pagePool) (*Cache, []ObjRef) {
	rng := rand.New(rand.NewSource(3))
	c := New("dentry", 192, 1, p.get, p.put)
	var live []ObjRef
	for i := 0; i < 400; i++ {
		if rng.Intn(3) > 0 || len(live) == 0 {
			r, err := c.Alloc()
			if err != nil {
				panic(err)
			}
			live = append(live, r)
		} else {
			j := rng.Intn(len(live))
			c.Free(live[j])
			live = append(live[:j], live[j+1:]...)
		}
	}
	return c, live
}

// TestSnapshotRoundTrip restores a churned cache into a fresh one of
// the same geometry: the restored cache must write the same bytes and
// then hand out and take back the same objects as the original.
func TestSnapshotRoundTrip(t *testing.T) {
	p := &pagePool{}
	orig, live := churned(p)
	file := stateFile(t, orig)
	q := &pagePool{next: p.next}
	got := New("dentry", 192, 1, q.get, q.put)
	if err := restoreFile(t, got, file); err != nil {
		t.Fatal(err)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stateFile(t, got), file) {
		t.Fatal("re-snapshot differs from the original")
	}
	for i := 0; i < 60; i++ {
		a, errA := orig.Alloc()
		b, errB := got.Alloc()
		if a != b || errA != nil || errB != nil {
			t.Fatalf("alloc %d: original %v, %v; restored %v, %v", i, a, errA, b, errB)
		}
		orig.Free(live[i])
		got.Free(live[i])
	}
	if !bytes.Equal(stateFile(t, got), stateFile(t, orig)) {
		t.Fatal("restored cache diverged from the original")
	}
}

// TestRestoreRejectsCorruptState writes caches whose state breaks an
// invariant and requires reading each back to fail.
func TestRestoreRejectsCorruptState(t *testing.T) {
	cases := []struct {
		name, want string
		corrupt    func(c *Cache)
	}{
		// A duplicated free index would let Alloc hand the object out
		// twice.
		{"duplicate free index", "inUse 3 + free 19 != cap 21", func(c *Cache) {
			s := slabAt(c, c.partial[0])
			s.free = append(s.free, s.free[0])
		}},
		{"free index out of range", "bad free index 21", func(c *Cache) {
			s := slabAt(c, c.partial[0])
			s.free[0] = 21
		}},
		{"empty count", "empty count", func(c *Cache) { c.empties++ }},
		{"slab twice", "twice", func(c *Cache) {
			c.slabs = append(c.slabs, &slabState{base: c.partial[0], capacity: 21, inUse: 21})
		}},
		{"slabs out of order", "out of order", func(c *Cache) {
			c.slabs = append([]*slabState{{base: c.partial[0] + 5, capacity: 21, inUse: 21}}, c.slabs...)
		}},
		{"geometry", "geometry", func(c *Cache) {
			for _, s := range c.slabs {
				s.capacity = 20
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &pagePool{}
			c := New("dentry", 192, 1, p.get, p.put)
			for i := 0; i < 3; i++ {
				if _, err := c.Alloc(); err != nil {
					t.Fatal(err)
				}
			}
			tc.corrupt(c)
			err := restoreFile(t, New("dentry", 192, 1, p.get, p.put), stateFile(t, c))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore = %v, want an error containing %q", err, tc.want)
			}
		})
	}
	p := &pagePool{}
	err := restoreFile(t, New("inode", 192, 1, p.get, p.put), stateFile(t, New("dentry", 192, 1, p.get, p.put)))
	if err == nil || !strings.Contains(err.Error(), `applied to "inode"`) {
		t.Fatalf("restore into another cache = %v, want a name mismatch", err)
	}
}

// FuzzRestore feeds SnapshotState arbitrary section bodies, written
// byte by byte through Writer.State. Whatever it accepts must pass
// CheckInvariants and survive a short Alloc/Free sequence.
func FuzzRestore(f *testing.F) {
	c, _ := churned(&pagePool{})
	f.Add(sectionBody(f, stateFile(f, c)))
	dp := &pagePool{}
	dup := New("dentry", 192, 1, dp.get, dp.put)
	if _, err := dup.Alloc(); err != nil {
		f.Fatal(err)
	}
	s := slabAt(dup, dup.partial[0])
	s.free = append(s.free, s.free[0])
	f.Add(sectionBody(f, stateFile(f, dup)))
	s.free = s.free[:len(s.free)-1]
	dup.slabs = append(dup.slabs, &slabState{base: 0, capacity: 21, inUse: 21})
	f.Add(sectionBody(f, stateFile(f, dup)))
	f.Fuzz(func(t *testing.T, b []byte) {
		p := &pagePool{}
		c := New("dentry", 192, 1, p.get, p.put)
		if restoreFile(t, c, rawFile(t, b)) != nil {
			return
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("restore accepted a state CheckInvariants rejects: %v", err)
		}
		// New slabs must not land on a restored slab's frames.
		for _, base := range c.Bases() {
			if base == math.MaxUint64 {
				return // no frame above it for a new slab
			}
			p.next = max(p.next, base+1)
		}
		inUse := c.InUse()
		var refs []ObjRef
		for i := 0; i < 25; i++ {
			r, err := c.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			refs = append(refs, r)
		}
		for _, r := range refs {
			c.Free(r)
		}
		if err := c.CheckInvariants(); err != nil || c.InUse() != inUse {
			t.Fatalf("after an Alloc/Free sequence: %v, %d in use, was %d", err, c.InUse(), inUse)
		}
	})
}
