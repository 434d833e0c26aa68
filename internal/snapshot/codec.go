package snapshot

import "heteroos/internal/sim"

// Codec states a section layout once for both directions. It wraps an
// Encoder (writing) or a Decoder (reading); each primitive takes a
// pointer and either writes the value it points at or overwrites it
// with the value read, so one field list is both writer and reader.
// A read that fails leaves its target as it was; after the first error
// every primitive is a no-op and Err reports it.
type Codec struct {
	e   *Encoder
	d   *Decoder
	err error
}

// Reading reports whether the codec decodes into its targets.
func (c *Codec) Reading() bool { return c.d != nil }

// Err reports the first error: a decode error, a JSON marshal error or
// one recorded by Fail.
func (c *Codec) Err() error {
	if c.err == nil && c.d != nil {
		return c.d.Err()
	}
	return c.err
}

// Fail records err (if non-nil) unless an error is already set.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func field[T any](c *Codec, v *T, put func(*Encoder, T), get func(*Decoder) T) {
	switch {
	case c.Err() != nil:
	case c.d != nil:
		if x := get(c.d); c.d.Err() == nil {
			*v = x
		}
	default:
		put(c.e, *v)
	}
}

// The primitives code one value each in the Encoder/Decoder format.

func (c *Codec) U8(v *uint8)       { field(c, v, (*Encoder).U8, (*Decoder).U8) }
func (c *Codec) Bool(v *bool)      { field(c, v, (*Encoder).Bool, (*Decoder).Bool) }
func (c *Codec) U16(v *uint16)     { field(c, v, (*Encoder).U16, (*Decoder).U16) }
func (c *Codec) U32(v *uint32)     { field(c, v, (*Encoder).U32, (*Decoder).U32) }
func (c *Codec) U64(v *uint64)     { field(c, v, (*Encoder).U64, (*Decoder).U64) }
func (c *Codec) I64(v *int64)      { field(c, v, (*Encoder).I64, (*Decoder).I64) }
func (c *Codec) Int(v *int)        { field(c, v, (*Encoder).Int, (*Decoder).Int) }
func (c *Codec) F64(v *float64)    { field(c, v, (*Encoder).F64, (*Decoder).F64) }
func (c *Codec) U64s(v *[]uint64)  { field(c, v, (*Encoder).U64s, (*Decoder).U64s) }
func (c *Codec) F64s(v *[]float64) { field(c, v, (*Encoder).F64s, (*Decoder).F64s) }
func (c *Codec) Str(v *string)     { field(c, v, (*Encoder).Str, (*Decoder).Str) }
func (c *Codec) Bytes(v *[]byte)   { field(c, v, (*Encoder).Bytes, (*Decoder).Bytes) }

// Len codes a length prefix (a u32; reading bounds it like Decoder.Len).
func (c *Codec) Len(n *int) {
	field(c, n, func(e *Encoder, n int) { e.U32(uint32(n)) }, (*Decoder).Len)
}

// RNG codes a random stream's raw xoshiro256** state words.
func (c *Codec) RNG(r *sim.RNG) {
	st := r.State()
	for i := range st {
		c.U64(&st[i])
	}
	r.Restore(st)
}

// JSON codes v through encoding/json (see Encoder.JSON); a marshal
// error sticks like a decode error.
func (c *Codec) JSON(v interface{}) {
	switch {
	case c.Err() != nil:
	case c.d != nil:
		c.Fail(c.d.JSON(v))
	default:
		c.Fail(c.e.JSON(v))
	}
}

// Slice codes a length-prefixed slice one element at a time through
// elem; reading replaces *s with a new slice of the decoded length.
func Slice[T any](c *Codec, s *[]T, elem func(*T)) {
	n := len(*s)
	c.Len(&n)
	if c.Reading() && c.Err() == nil {
		*s = make([]T, n)
	}
	for i := range *s {
		elem(&(*s)[i])
	}
}
