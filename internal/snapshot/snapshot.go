// Package snapshot implements the deterministic on-disk checkpoint
// format used by core.Checkpoint / core.RestoreSystem. A snapshot is a
// sequence of named sections wrapped in a versioned header and a
// CRC64 trailer:
//
//	magic   "HOSNAP1\n" (8 bytes)
//	version u32 LE
//	repeat:
//	  nameLen u16 LE, name bytes
//	  bodyLen u32 LE, body bytes
//	trailer: nameLen=0, crc64(ECMA) over everything after the header
//
// Sections are written and read through Encoder/Decoder, a pair of
// sticky-error primitive codecs with fixed-width little-endian
// integers. Determinism rules every writer must follow:
//
//   - map contents are emitted in sorted key order;
//   - order-bearing structures (free-list stacks, LRU lists) are
//     emitted in their exact runtime order;
//   - floats are encoded via math.Float64bits (exact round-trip);
//   - RNG streams are encoded as their raw xoshiro256** state words.
//
// The same System state therefore always serializes to the same bytes,
// which is what lets `make snapshot-parity` compare restored runs
// byte-for-byte against uninterrupted ones.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"io"
	"math"
)

// Version is the current snapshot format version. Readers reject any
// other version outright: state layout changes must bump it.
//
// History:
//
//	1: original row-oriented guest page store section.
//	2: columnar (struct-of-arrays) guest page store section — one
//	   sorted PFN list followed by per-field arrays.
//	3: departed-VM entries record whether the VM migrated out (so a
//	   restored host still accepts it back); no front-end meta section
//	   (the fleet keeps its state in a checkpoint of its own).
//	4: the machine section drops the tier-spec generation counter.
const Version = 4

// VersionError is returned by Open when the file's format version does
// not match Version. Callers can detect it with errors.As to tell a
// stale-but-valid snapshot apart from a corrupt one.
type VersionError struct {
	Got, Want uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("snapshot: unsupported format version %d (this build reads version %d; re-create the snapshot with the current binary)",
		e.Got, e.Want)
}

// magic identifies a HeteroOS snapshot file.
var magic = [8]byte{'H', 'O', 'S', 'N', 'A', 'P', '1', '\n'}

// crcTable is the ECMA polynomial table shared by writer and reader.
var crcTable = crc64.MakeTable(crc64.ECMA)

// maxSectionBytes bounds one section (and one section name) so a
// corrupted length prefix cannot drive a huge allocation.
const (
	maxSectionBytes = 1 << 30
	maxNameBytes    = 1 << 10
)

// --- Encoder ---

// Encoder serializes primitives into a growing buffer. Errors are
// impossible on the write side (bytes.Buffer), so methods return
// nothing; the symmetry with Decoder is in the call shapes.
type Encoder struct {
	buf bytes.Buffer
}

// U8 writes one byte.
func (e *Encoder) U8(v uint8) { e.buf.WriteByte(v) }

// Bool writes a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U16 writes a little-endian uint16.
func (e *Encoder) U16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	e.buf.Write(b[:])
}

// U32 writes a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.buf.Write(b[:])
}

// U64 writes a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf.Write(b[:])
}

// I64 writes a little-endian int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int writes an int as int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 writes a float64 by exact bit pattern.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bytes writes a length-prefixed byte slice.
func (e *Encoder) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.buf.Write(b)
}

// Str writes a length-prefixed string.
func (e *Encoder) Str(s string) { e.Bytes([]byte(s)) }

// U64s writes a length-prefixed slice of uint64 in order.
func (e *Encoder) U64s(vs []uint64) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.U64(v)
	}
}

// F64s writes a length-prefixed slice of float64 in order.
func (e *Encoder) F64s(vs []float64) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.F64(v)
	}
}

// JSON writes a value through encoding/json (used for plain exported
// stat structs where field-by-field encoding would be noise; Go's
// shortest-float marshalling round-trips float64 exactly).
func (e *Encoder) JSON(v interface{}) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	e.Bytes(b)
	return nil
}

// --- Decoder ---

// Decoder reads primitives from a section body. The first error sticks:
// every subsequent read returns zero values, and Err reports it, so
// restore code can decode a full section and check once.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder decodes the given section body.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err reports the first decode error (nil if none).
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.err = fmt.Errorf("snapshot: truncated section (want %d bytes at offset %d of %d)", n, d.off, len(d.b))
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int64-encoded int.
func (d *Decoder) Int() int { return int(d.I64()) }

// F64 reads a float64 by bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Len reads a length prefix. Element counts are sanity-bounded against
// the remaining body (every element costs at least one byte) so a
// corrupted prefix fails cleanly instead of driving a huge allocation.
func (d *Decoder) Len() int {
	n := int(d.U32())
	if d.err == nil && n > len(d.b)-d.off {
		d.err = fmt.Errorf("snapshot: implausible length %d (only %d bytes remain)", n, len(d.b)-d.off)
		return 0
	}
	return n
}

// Bytes reads a length-prefixed byte slice (a copy).
func (d *Decoder) Bytes() []byte {
	n := d.Len()
	b := d.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.Bytes()) }

// U64s reads a length-prefixed []uint64.
func (d *Decoder) U64s() []uint64 {
	n := d.Len()
	if d.err != nil {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.U64()
	}
	return out
}

// F64s reads a length-prefixed []float64.
func (d *Decoder) F64s() []float64 {
	n := d.Len()
	if d.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}

// JSON decodes a JSON-encoded value written by Encoder.JSON.
func (d *Decoder) JSON(v interface{}) error {
	b := d.Bytes()
	if d.err != nil {
		return d.err
	}
	return json.Unmarshal(b, v)
}

// --- Writer ---

// Writer streams a snapshot to an io.Writer section by section.
type Writer struct {
	w      io.Writer
	crc    uint64
	err    error
	closed bool
}

// NewWriter writes the header and returns a section writer.
func NewWriter(w io.Writer) (*Writer, error) {
	sw := &Writer{w: w}
	if _, err := w.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("snapshot: writing magic: %w", err)
	}
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], Version)
	if _, err := w.Write(v[:]); err != nil {
		return nil, fmt.Errorf("snapshot: writing version: %w", err)
	}
	return sw, nil
}

func (w *Writer) writeRaw(b []byte) {
	if w.err != nil {
		return
	}
	w.crc = crc64.Update(w.crc, crcTable, b)
	if _, err := w.w.Write(b); err != nil {
		w.err = err
	}
}

// Section emits one named section built by fn. Names must be unique
// per snapshot (the reader keeps the last on duplicates) and non-empty.
func (w *Writer) Section(name string, fn func(*Encoder)) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("snapshot: Section %q after Close", name)
	}
	if name == "" || len(name) > maxNameBytes {
		return fmt.Errorf("snapshot: invalid section name %q", name)
	}
	var e Encoder
	fn(&e)
	body := e.buf.Bytes()
	if len(body) > maxSectionBytes {
		return fmt.Errorf("snapshot: section %q too large (%d bytes)", name, len(body))
	}
	var hdr [2]byte
	binary.LittleEndian.PutUint16(hdr[:], uint16(len(name)))
	w.writeRaw(hdr[:])
	w.writeRaw([]byte(name))
	var blen [4]byte
	binary.LittleEndian.PutUint32(blen[:], uint32(len(body)))
	w.writeRaw(blen[:])
	w.writeRaw(body)
	if w.err != nil {
		return fmt.Errorf("snapshot: writing section %q: %w", name, w.err)
	}
	return nil
}

// Close writes the checksum trailer. The Writer is unusable afterwards.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	var trailer [10]byte // nameLen=0 marker + crc64
	binary.LittleEndian.PutUint16(trailer[0:2], 0)
	binary.LittleEndian.PutUint64(trailer[2:10], w.crc)
	if _, err := w.w.Write(trailer[:]); err != nil {
		return fmt.Errorf("snapshot: writing trailer: %w", err)
	}
	return nil
}

// --- Reader ---

// Reader holds a fully parsed, checksum-verified snapshot.
type Reader struct {
	sections map[string][]byte
	order    []string
}

// Open reads an entire snapshot, verifying magic, version, and the
// CRC64 trailer before returning.
func Open(r io.Reader) (*Reader, error) {
	all, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading: %w", err)
	}
	if len(all) < len(magic)+4 {
		return nil, fmt.Errorf("snapshot: file too short (%d bytes)", len(all))
	}
	if !bytes.Equal(all[:len(magic)], magic[:]) {
		return nil, fmt.Errorf("snapshot: bad magic (not a HeteroOS snapshot)")
	}
	ver := binary.LittleEndian.Uint32(all[len(magic) : len(magic)+4])
	if ver != Version {
		return nil, &VersionError{Got: ver, Want: Version}
	}
	body := all[len(magic)+4:]
	rd := &Reader{sections: make(map[string][]byte)}
	off := 0
	for {
		if off+2 > len(body) {
			return nil, fmt.Errorf("snapshot: missing trailer")
		}
		nameLen := int(binary.LittleEndian.Uint16(body[off : off+2]))
		if nameLen == 0 {
			// Trailer: crc over everything before it.
			if off+10 > len(body) {
				return nil, fmt.Errorf("snapshot: truncated trailer")
			}
			want := binary.LittleEndian.Uint64(body[off+2 : off+10])
			got := crc64.Checksum(body[:off], crcTable)
			if got != want {
				return nil, fmt.Errorf("snapshot: checksum mismatch (file %016x, computed %016x)", want, got)
			}
			if off+10 != len(body) {
				return nil, fmt.Errorf("snapshot: %d trailing bytes after trailer", len(body)-off-10)
			}
			return rd, nil
		}
		off += 2
		if nameLen > maxNameBytes || off+nameLen > len(body) {
			return nil, fmt.Errorf("snapshot: corrupt section name length %d", nameLen)
		}
		name := string(body[off : off+nameLen])
		off += nameLen
		if off+4 > len(body) {
			return nil, fmt.Errorf("snapshot: truncated section %q", name)
		}
		bodyLen := int(binary.LittleEndian.Uint32(body[off : off+4]))
		off += 4
		if bodyLen > maxSectionBytes || off+bodyLen > len(body) {
			return nil, fmt.Errorf("snapshot: corrupt section %q length %d", name, bodyLen)
		}
		if _, dup := rd.sections[name]; !dup {
			rd.order = append(rd.order, name)
		}
		rd.sections[name] = body[off : off+bodyLen]
		off += bodyLen
	}
}

// Section returns a decoder over the named section, or an error if the
// snapshot has no such section.
func (r *Reader) Section(name string) (*Decoder, error) {
	b, ok := r.sections[name]
	if !ok {
		return nil, fmt.Errorf("snapshot: no section %q", name)
	}
	return NewDecoder(b), nil
}

// Raw returns the named section's raw body bytes (not a copy), for
// byte-level comparison tooling.
func (r *Reader) Raw(name string) ([]byte, bool) {
	b, ok := r.sections[name]
	return b, ok
}

// Has reports whether the named section exists.
func (r *Reader) Has(name string) bool {
	_, ok := r.sections[name]
	return ok
}

// Sections lists section names in file order.
func (r *Reader) Sections() []string { return append([]string(nil), r.order...) }
