package snapshot

import (
	"bytes"
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

// TestCodecRoundTrip writes a layout with a writing Codec and reads it
// back into a zero value with a reading one; the values must match and
// the bytes must be the Encoder's, in field order.
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
	if err := w.Section("e", func(e *Encoder) {
		e.U8(7)
		e.Bool(true)
		e.U16(0xbeef)
		e.U32(0xdeadbeef)
		e.U64(1 << 62)
		e.I64(-42)
		e.Int(12345)
		e.F64(math.Pi)
		e.U64s([]uint64{9, 8, 7})
		e.F64s([]float64{0.5, -0.25})
		e.Str("dentry")
		e.Bytes([]byte{1, 0, 255})
		e.U32(2) // two pairs
		for _, v := range []uint64{1, 2, 3, 4} {
			e.U64(v)
		}
		if err := e.JSON(want.Spec); err != nil {
			t.Fatal(err)
		}
		for _, v := range want.RNG {
			e.U64(v)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s, e := mustRaw(t, r, "s"), mustRaw(t, r, "e"); !bytes.Equal(s, e) {
		t.Fatalf("codec bytes differ from the Encoder's:\n codec   %x\n encoder %x", s, e)
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
	if err := w.Section("short", func(e *Encoder) { e.U64(5) }); err != nil {
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
