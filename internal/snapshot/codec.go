package snapshot

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"heteroos/internal/sim"
)

// Codec codes one section body in either direction. Each primitive
// takes a pointer: a writing Codec appends the value it points at, a
// reading one overwrites it with the value read, so one field list is
// both writer and reader. Integers are fixed-width little-endian. A
// read that fails leaves its target as it was; after the first error
// every primitive is a no-op and Err reports it. A writing Codec
// validates nothing, so tests and fuzzers write malformed sections
// through it too.
type Codec struct {
	b       []byte // the body: appended to when writing, read from at off
	off     int
	reading bool
	err     error
}

// Reading reports whether the codec decodes into its targets.
func (c *Codec) Reading() bool { return c.reading }

// Err reports the first error: a decode error, a JSON marshal error or
// one recorded by Fail.
func (c *Codec) Err() error { return c.err }

// Fail records err (if non-nil) unless an error is already set.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// next returns the n bytes that code one value: n bytes appended to a
// writing body, which grows by doubling, or a reading body's next n
// bytes. Reading past the end sets the truncation error; once an error
// is set next returns nil.
func (c *Codec) next(n int) []byte {
	if c.err != nil {
		return nil
	}
	if !c.reading {
		l := len(c.b)
		if l+n > cap(c.b) {
			b := make([]byte, l, 2*cap(c.b)+n)
			copy(b, c.b)
			c.b = b
		}
		c.b = c.b[:l+n]
		return c.b[l:]
	}
	if n < 0 || c.off+n > len(c.b) {
		c.err = fmt.Errorf("snapshot: truncated section (want %d bytes at offset %d of %d)", n, c.off, len(c.b))
		return nil
	}
	c.off += n
	return c.b[c.off-n : c.off]
}

// U8 codes one byte.
func (c *Codec) U8(v *uint8) {
	switch b := c.next(1); {
	case c.err != nil:
	case c.reading:
		*v = b[0]
	default:
		b[0] = *v
	}
}

// U16 codes a little-endian uint16.
func (c *Codec) U16(v *uint16) {
	switch b := c.next(2); {
	case c.err != nil:
	case c.reading:
		*v = binary.LittleEndian.Uint16(b)
	default:
		binary.LittleEndian.PutUint16(b, *v)
	}
}

// U32 codes a little-endian uint32.
func (c *Codec) U32(v *uint32) {
	switch b := c.next(4); {
	case c.err != nil:
	case c.reading:
		*v = binary.LittleEndian.Uint32(b)
	default:
		binary.LittleEndian.PutUint32(b, *v)
	}
}

// U64 codes a little-endian uint64.
func (c *Codec) U64(v *uint64) {
	switch b := c.next(8); {
	case c.err != nil:
	case c.reading:
		*v = binary.LittleEndian.Uint64(b)
	default:
		binary.LittleEndian.PutUint64(b, *v)
	}
}

// The primitives below convert their target to a wire word and back;
// a failed read leaves the word, and so the target, unchanged.

// Bool codes a bool as one byte (any non-zero byte reads as true).
func (c *Codec) Bool(v *bool) {
	var u uint8
	if *v {
		u = 1
	}
	c.U8(&u)
	*v = u != 0
}

// I64 codes an int64 as its uint64 bits.
func (c *Codec) I64(v *int64) {
	u := uint64(*v)
	c.U64(&u)
	*v = int64(u)
}

// Int codes an int as an int64.
func (c *Codec) Int(v *int) {
	u := uint64(*v)
	c.U64(&u)
	*v = int(u)
}

// F64 codes a float64 by its exact bit pattern.
func (c *Codec) F64(v *float64) {
	u := math.Float64bits(*v)
	c.U64(&u)
	*v = math.Float64frombits(u)
}

// Len codes a length prefix as a u32. A length read is bounded by the
// bytes left in the body (every element costs at least one), so a
// corrupted prefix fails cleanly instead of driving a huge allocation.
func (c *Codec) Len(n *int) {
	u := uint32(*n)
	c.U32(&u)
	switch {
	case !c.reading || c.err != nil:
	case int(u) > len(c.b)-c.off:
		c.err = fmt.Errorf("snapshot: implausible length %d (only %d bytes remain)", u, len(c.b)-c.off)
	default:
		*n = int(u)
	}
}

// Bytes codes a length-prefixed byte slice; reading stores a copy.
func (c *Codec) Bytes(v *[]byte) {
	n := len(*v)
	c.Len(&n)
	switch b := c.next(n); {
	case c.err != nil:
	case c.reading:
		*v = append(make([]byte, 0, n), b...)
	default:
		copy(b, *v)
	}
}

// Str codes a length-prefixed string.
func (c *Codec) Str(v *string) {
	n := len(*v)
	c.Len(&n)
	switch b := c.next(n); {
	case c.err != nil:
	case c.reading:
		*v = string(b)
	default:
		copy(b, *v)
	}
}

// U64s codes a length-prefixed []uint64.
func (c *Codec) U64s(v *[]uint64) { Slice(c, v, c.U64) }

// F64s codes a length-prefixed []float64.
func (c *Codec) F64s(v *[]float64) { Slice(c, v, c.F64) }

// JSON codes v as length-prefixed encoding/json bytes (for plain
// exported stat structs where field-by-field coding would be noise;
// Go's shortest-float marshalling round-trips float64 exactly). A
// marshal or unmarshal error sticks like a decode error.
func (c *Codec) JSON(v any) {
	var b []byte
	if !c.reading && c.err == nil {
		var err error
		b, err = json.Marshal(v)
		c.Fail(err)
	}
	c.Bytes(&b)
	if c.reading && c.err == nil {
		c.Fail(json.Unmarshal(b, v))
	}
}

// RNG codes a random stream's raw xoshiro256** state words.
func (c *Codec) RNG(r *sim.RNG) {
	st := r.State()
	for i := range st {
		c.U64(&st[i])
	}
	r.Restore(st)
}

// Slice codes a length-prefixed slice one element at a time through
// elem. Reading decodes into a new slice of the read length and stores
// it in *s only if every element read cleanly.
func Slice[T any](c *Codec, s *[]T, elem func(*T)) {
	n := len(*s)
	c.Len(&n)
	if c.err != nil {
		return
	}
	v := *s
	if c.reading {
		v = make([]T, n)
	}
	for i := range v {
		elem(&v[i])
	}
	if c.err == nil {
		*s = v
	}
}
