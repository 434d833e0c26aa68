package snapshot

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"strings"
	"testing"

	"heteroos/internal/sim"
)

// codecState exercises every Codec primitive in one layout.
type codecState struct {
	U8   uint8
	B    bool
	U16  uint16
	U32  uint32
	U64  uint64
	I64  int64
	Int  int
	F64  float64
	U64s []uint64
	F64s []float64
	Str  string
	Raw  []byte
	Pair []struct{ A, B uint64 }
	Spec struct{ X float64 }
	RNG  [4]uint64
}

func (s *codecState) layout(c *Codec) error {
	c.U8(&s.U8)
	c.Bool(&s.B)
	c.U16(&s.U16)
	c.U32(&s.U32)
	c.U64(&s.U64)
	c.I64(&s.I64)
	c.Int(&s.Int)
	c.F64(&s.F64)
	c.U64s(&s.U64s)
	c.F64s(&s.F64s)
	c.Str(&s.Str)
	c.Bytes(&s.Raw)
	Slice(c, &s.Pair, func(p *struct{ A, B uint64 }) {
		c.U64(&p.A)
		c.U64(&p.B)
	})
	c.JSON(&s.Spec)
	r := sim.NewRNG(0)
	r.Restore(s.RNG)
	c.RNG(r)
	s.RNG = r.State()
	return c.Err()
}

// codecWire is codecState's wire layout for the values in
// TestCodecRoundTrip, one line per field.
var codecWire = strings.Join([]string{
	"07",               // U8
	"01",               // Bool
	"efbe",             // U16
	"efbeadde",         // U32
	"0000000000000040", // U64 1<<62
	"d6ffffffffffffff", // I64 -42
	"3930000000000000", // Int 12345
	"182d4454fb210940", // F64 pi
	"03000000" + "0900000000000000" + "0800000000000000" + "0700000000000000",
	"02000000" + "000000000000e03f" + "000000000000d0bf",
	"06000000" + "64656e747279", // "dentry"
	"03000000" + "0100ff",
	"02000000" + "0100000000000000" + "0200000000000000" + "0300000000000000" + "0400000000000000",
	"09000000" + "7b2258223a322e357d", // {"X":2.5}
	"0b00000000000000" + "0c00000000000000" + "0d00000000000000" + "0e00000000000000",
}, "")

// TestCodecRoundTrip writes a layout with a writing Codec and reads it
// back into a zero value with a reading one; the bytes must be the
// pinned wire layout and the values must match.
func TestCodecRoundTrip(t *testing.T) {
	want := codecState{
		U8: 7, B: true, U16: 0xbeef, U32: 0xdeadbeef, U64: 1 << 62, I64: -42, Int: 12345, F64: math.Pi,
		U64s: []uint64{9, 8, 7}, F64s: []float64{0.5, -0.25},
		Str: "dentry", Raw: []byte{1, 0, 255},
		Pair: []struct{ A, B uint64 }{{1, 2}, {3, 4}},
		RNG:  [4]uint64{11, 12, 13, 14},
	}
	want.Spec.X = 2.5
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.State("s", want.layout); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(mustRaw(t, r, "s")); got != codecWire {
		t.Fatalf("wire layout:\n got  %s\n want %s", got, codecWire)
	}
	var got codecState
	if err := r.State("s", got.layout); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got  %+v\n want %+v", got, want)
	}
}

func mustRaw(t *testing.T, r *Reader, name string) []byte {
	t.Helper()
	b, ok := r.Raw(name)
	if !ok {
		t.Fatalf("no section %q", name)
	}
	return b
}

// TestCodecErrorsStick checks that the first error ends the layout: a
// truncated section leaves later targets untouched, and a value JSON
// cannot marshal fails the write so no section is emitted.
func TestCodecErrorsStick(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.State("short", func(c *Codec) error {
		v := uint64(5)
		c.U64(&v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	err = w.State("nan", func(c *Codec) error {
		c.JSON(math.NaN())
		v := uint64(1)
		c.U64(&v)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), `"nan"`) {
		t.Fatalf("State with a NaN JSON value: err = %v, want an error naming the section", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Has("nan") {
		t.Fatal("a failed State still wrote its section")
	}
	a, b, c2 := uint64(0), uint64(7), uint64(9)
	err = r.State("short", func(c *Codec) error {
		c.U64(&a)
		c.U64(&b) // truncated here
		c.U64(&c2)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("reading past the section end: err = %v, want truncated", err)
	}
	if a != 5 || b != 7 || c2 != 9 {
		t.Fatalf("after the error: a=%d b=%d c=%d, want 5 7 9 (targets past the error untouched)", a, b, c2)
	}
}

// TestCodecStickyError: after the first failed read every later
// primitive is a no-op that leaves its target as it was, and Err keeps
// reporting the original error.
func TestCodecStickyError(t *testing.T) {
	c := &Codec{b: []byte{1, 2, 3, 4, 5}, reading: true}
	u64 := uint64(99)
	c.U64(&u64) // wants 8 bytes, only 5 available
	first := c.Err()
	if first == nil || !strings.Contains(first.Error(), "truncated") {
		t.Fatalf("short read: err = %v, want truncated", first)
	}
	u8, u32, b, f, s := uint8(7), uint32(8), true, 1.5, "keep"
	raw, vs := []byte{9}, []uint64{10}
	c.U8(&u8) // the body still holds bytes for these
	c.U32(&u32)
	c.Bool(&b)
	c.F64(&f)
	c.Str(&s)
	c.Bytes(&raw)
	c.U64s(&vs)
	if u64 != 99 || u8 != 7 || u32 != 8 || !b || f != 1.5 || s != "keep" || !bytes.Equal(raw, []byte{9}) || !reflect.DeepEqual(vs, []uint64{10}) {
		t.Errorf("targets changed after the error: %d %d %d %v %v %q %v %v", u64, u8, u32, b, f, s, raw, vs)
	}
	if c.Err() != first {
		t.Error("sticky error was replaced")
	}
	w := &Codec{}
	w.Fail(first)
	w.U64(&u64)
	if len(w.b) != 0 {
		t.Errorf("a failed writing codec appended %d bytes", len(w.b))
	}
}

// TestCodecImplausibleLength: a corrupted length prefix larger than the
// remaining body fails cleanly instead of allocating gigabytes, and
// leaves the slice it was read for unchanged.
func TestCodecImplausibleLength(t *testing.T) {
	c := &Codec{b: []byte{0, 0, 0, 0x10, 1, 2}, reading: true} // claims 256Mi elements
	vs := []uint64{3}
	c.U64s(&vs)
	if c.Err() == nil || !strings.Contains(c.Err().Error(), "implausible length") {
		t.Fatalf("implausible length: err = %v", c.Err())
	}
	if !reflect.DeepEqual(vs, []uint64{3}) {
		t.Errorf("implausible slice replaced its target: %v", vs)
	}
}

// TestCodecFailedSliceKeepsTarget: a slice whose elements run past the
// body end leaves the slice it was read for unchanged.
func TestCodecFailedSliceKeepsTarget(t *testing.T) {
	// Two uint64 elements claimed, one and a half present.
	c := &Codec{b: append([]byte{2, 0, 0, 0}, make([]byte, 12)...), reading: true}
	vs := []uint64{3}
	c.U64s(&vs)
	if c.Err() == nil || !reflect.DeepEqual(vs, []uint64{3}) {
		t.Fatalf("truncated slice: err = %v, target %v (want an error and [3])", c.Err(), vs)
	}
}
