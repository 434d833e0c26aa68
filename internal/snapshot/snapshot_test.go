package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// alphaState holds one value of every primitive for the "alpha"
// section most tests write.
type alphaState struct {
	u8   uint8
	b    bool
	u16  uint16
	u32  uint32
	u64  uint64
	i64  int64
	n    int
	f    float64
	raw  []byte
	s    string
	u64s []uint64
	f64s []float64
}

func (a *alphaState) layout(c *Codec) error {
	c.U8(&a.u8)
	c.Bool(&a.b)
	c.U16(&a.u16)
	c.U32(&a.u32)
	c.U64(&a.u64)
	c.I64(&a.i64)
	c.Int(&a.n)
	c.F64(&a.f)
	c.Bytes(&a.raw)
	c.Str(&a.s)
	c.U64s(&a.u64s)
	Slice(c, &a.f64s, c.F64)
	return nil
}

// write builds a two-section snapshot used by most tests.
func write(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	alpha := alphaState{7, true, 0xbeef, 0xdeadbeef, 1 << 62, -42, 12345, math.Pi,
		[]byte{1, 2, 3}, "hello", []uint64{9, 8, 7}, []float64{0.5, -0.25}}
	if err := w.State("alpha", alpha.layout); err != nil {
		t.Fatal(err)
	}
	if err := w.State("beta", func(c *Codec) error {
		c.JSON(map[string]int{"x": 1})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRoundTrip: every primitive written by a writing Codec comes back
// exactly through a reading one, and section order is preserved.
func TestRoundTrip(t *testing.T) {
	r, err := Open(bytes.NewReader(write(t)))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Sections(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("sections = %v, want [alpha beta]", got)
	}
	var a alphaState
	if err := r.State("alpha", a.layout); err != nil {
		t.Fatalf("decode error: %v", err)
	}
	want := alphaState{7, true, 0xbeef, 0xdeadbeef, 1 << 62, -42, 12345, math.Pi,
		[]byte{1, 2, 3}, "hello", []uint64{9, 8, 7}, []float64{0.5, -0.25}}
	if !reflect.DeepEqual(a, want) {
		t.Errorf("alpha = %+v, want %+v", a, want)
	}
	var m map[string]int
	if err := r.State("beta", func(c *Codec) error {
		c.JSON(&m)
		return nil
	}); err != nil || m["x"] != 1 {
		t.Errorf("JSON = %v, %v", m, err)
	}
	if _, ok := r.Raw("alpha"); !ok {
		t.Error("Raw misses a written section")
	}
	if _, ok := r.Raw("gamma"); ok {
		t.Error("Raw reports a section never written")
	}
	if err := r.State("gamma", func(*Codec) error { return nil }); err == nil {
		t.Error("missing section did not error")
	}
}

// TestDeterministicBytes: writing the same sections twice produces
// byte-identical files — the property snapshot-parity rests on.
func TestDeterministicBytes(t *testing.T) {
	if !bytes.Equal(write(t), write(t)) {
		t.Fatal("same sections serialized to different bytes")
	}
}

// TestOpenRejectsCorruption flips, truncates, and mangles the file at
// every structural layer; Open must reject each one outright rather
// than returning a half-usable Reader.
func TestOpenRejectsCorruption(t *testing.T) {
	good := write(t)
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantSub string
	}{
		{"bit flip in body", func(b []byte) []byte {
			// Section header is nameLen(2) + "alpha"(5) + bodyLen(4);
			// +15 lands inside the body, past the structural fields.
			b[len(magic)+4+15] ^= 0x01
			return b
		}, "checksum mismatch"},
		{"bit flip in trailer crc", func(b []byte) []byte {
			b[len(b)-1] ^= 0x80
			return b
		}, "checksum mismatch"},
		{"truncated mid-section", func(b []byte) []byte {
			return b[:len(b)-20]
		}, ""},
		{"missing trailer", func(b []byte) []byte {
			return b[:len(b)-10]
		}, "missing trailer"},
		{"trailing garbage", func(b []byte) []byte {
			return append(b, 0xff)
		}, "trailing bytes"},
		{"bad magic", func(b []byte) []byte {
			b[0] = 'X'
			return b
		}, "bad magic"},
		{"future version", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(magic):], Version+1)
			return b
		}, "unsupported format version"},
		{"too short", func(b []byte) []byte {
			return b[:5]
		}, "too short"},
		{"repeated section", func([]byte) []byte {
			var buf bytes.Buffer
			w, _ := NewWriter(&buf)
			for i := 0; i < 2; i++ {
				w.State("alpha", func(c *Codec) error {
					c.U8(new(uint8))
					return nil
				})
			}
			w.Close()
			return buf.Bytes()
		}, "repeated section"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), good...))
			_, err := Open(bytes.NewReader(b))
			if err == nil {
				t.Fatal("corrupted snapshot opened cleanly")
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestOpenRejectsV1Fixture: a committed version-1 era snapshot must be
// refused with a typed VersionError — never a panic or a misleading
// corruption message — so users with stale checkpoints get told to
// re-create them.
func TestOpenRejectsV1Fixture(t *testing.T) {
	raw, err := os.ReadFile("testdata/v1-empty.snap")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Open(bytes.NewReader(raw))
	if err == nil {
		t.Fatal("v1 snapshot opened cleanly under a v2 reader")
	}
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("error %q is not a *VersionError", err)
	}
	if ve.Got != 1 || ve.Want != Version {
		t.Fatalf("VersionError{Got:%d, Want:%d}, expected Got=1 Want=%d", ve.Got, ve.Want, Version)
	}
	for _, sub := range []string{"version 1", "re-create"} {
		if !strings.Contains(err.Error(), sub) {
			t.Fatalf("error %q does not mention %q", err, sub)
		}
	}
}

// TestWriterMisuse: empty section names and sections after Close are
// refused; Close is idempotent.
func TestWriterMisuse(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.State("", func(*Codec) error { return nil }); err == nil {
		t.Error("empty section name accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("second Close errored: %v", err)
	}
	if err := w.State("late", func(*Codec) error { return nil }); err == nil {
		t.Error("Section after Close accepted")
	}
}
