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
// A section body is coded by one Codec, a sticky-error codec of
// fixed-width little-endian primitives that runs in either direction.
// A stateful type states its layout once, in a method over a Codec
// (Writer.State writes a section through it, Reader.State reads one),
// so the writer and reader cannot drift apart; work only the reader
// does (rebuilding derived maps, validating what was read) runs under
// Codec.Reading after the field list. A writing Codec checks nothing,
// so Writer.State is also the seam through which tests and fuzzers
// write malformed sections.
// Because writer and reader change together, a round trip cannot catch
// a reordered field: byte pins of whole checkpoints (in internal/core
// and internal/fleet) can, and any change to them must bump Version.
// Determinism rules every writer must follow:
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
	"fmt"
	"hash/crc64"
	"io"
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
//	5: the guest page store drops the file, file-offset and touch-count
//	   columns, and its flags column narrows to one byte (five flags).
//	6: each guest node codes one free-frame stack of 32-bit frames in
//	   place of the per-CPU list shape, lists and counters; the buddy
//	   allocators drop their split/coalesce counters and the LRUs their
//	   activation/deactivation counters.
//	7: the guest drops its fault, swap-in and page-walk counters, the
//	   swap device its counters and the page cache its hit, miss,
//	   writeback and eviction counters.
const Version = 7

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

// --- Writer ---

// Writer streams a snapshot to an io.Writer section by section.
type Writer struct {
	w      io.Writer
	crc    uint64
	err    error
	closed bool
	c      Codec // every section's writing codec, reusing one body buffer
}

// NewWriter writes the header and returns a section writer.
func NewWriter(w io.Writer) (*Writer, error) {
	hdr := binary.LittleEndian.AppendUint32(append([]byte(nil), magic[:]...), Version)
	if _, err := w.Write(hdr); err != nil {
		return nil, fmt.Errorf("snapshot: writing header: %w", err)
	}
	return &Writer{w: w}, nil
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

// State emits one named section laid out by fn through a writing
// Codec. If fn or the codec fails, nothing is written and State
// returns that error. Names must be unique per snapshot (the reader
// keeps the last on duplicates) and non-empty.
func (w *Writer) State(name string, fn func(*Codec) error) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("snapshot: section %q after Close", name)
	}
	if name == "" || len(name) > maxNameBytes {
		return fmt.Errorf("snapshot: invalid section name %q", name)
	}
	c := &w.c
	*c = Codec{b: c.b[:0]}
	c.Fail(fn(c))
	if err := c.Err(); err != nil {
		return fmt.Errorf("snapshot: section %q: %w", name, err)
	}
	body := c.b
	if len(body) > maxSectionBytes {
		return fmt.Errorf("snapshot: section %q too large (%d bytes)", name, len(body))
	}
	hdr := append(binary.LittleEndian.AppendUint16(nil, uint16(len(name))), name...)
	w.writeRaw(binary.LittleEndian.AppendUint32(hdr, uint32(len(body))))
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
	trailer := binary.LittleEndian.AppendUint64([]byte{0, 0}, w.crc) // nameLen=0 marker + crc64
	if _, err := w.w.Write(trailer); err != nil {
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

// Open reads an entire snapshot and parses it with OpenBytes.
func Open(r io.Reader) (*Reader, error) {
	all, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading: %w", err)
	}
	return OpenBytes(all)
}

// OpenBytes parses the snapshot held in all, verifying magic, version,
// and the CRC64 trailer before returning. The Reader's sections are
// slices of all, not copies, so all must not change while the Reader is
// in use.
func OpenBytes(all []byte) (*Reader, error) {
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

// State reads the named section through fn with a reading Codec and
// returns fn's error or the codec's, whichever came first, wrapped with
// the section's name.
func (r *Reader) State(name string, fn func(*Codec) error) error {
	b, ok := r.sections[name]
	if !ok {
		return fmt.Errorf("snapshot: no section %q", name)
	}
	c := &Codec{b: b, reading: true}
	c.Fail(fn(c))
	if err := c.Err(); err != nil {
		return fmt.Errorf("snapshot: section %q: %w", name, err)
	}
	return nil
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
