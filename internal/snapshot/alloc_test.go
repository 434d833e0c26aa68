package snapshot_test

import (
	"testing"

	"heteroos/internal/snapshot"
)

// codeFixedWidth codes one local through each fixed-width primitive,
// from outside the package as every state type does.
func codeFixedWidth(c *snapshot.Codec) {
	var (
		u8  uint8   = 1
		b           = true
		u16 uint16  = 2
		u32 uint32  = 3
		u64 uint64  = 4
		i64 int64   = -5
		n   int     = 6
		f   float64 = 7.5
		l   int     = 0
	)
	c.U8(&u8)
	c.Bool(&b)
	c.U16(&u16)
	c.U32(&u32)
	c.U64(&u64)
	c.I64(&i64)
	c.Int(&n)
	c.F64(&f)
	c.Len(&l)
}

// TestCodecFixedWidthDoesNotAllocate: coding a local through a
// fixed-width primitive, in either direction, allocates nothing once
// the body has room, so a per-page field list costs no garbage.
func TestCodecFixedWidthDoesNotAllocate(t *testing.T) {
	body := make([]byte, 0, 64)
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		w := snapshot.NewCodec(body[:0], false)
		codeFixedWidth(w)
		r := snapshot.NewCodec(w.Body(), true)
		codeFixedWidth(r)
		if err == nil {
			err = w.Err()
		}
		if err == nil {
			err = r.Err()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("coding fixed-width locals allocated %.1f times per run, want 0", allocs)
	}
}
