package workload

import (
	"fmt"

	"heteroos/internal/guestos"
	"heteroos/internal/snapshot"
)

func snapshotRNGOwner(e *snapshot.Encoder, st [4]uint64) {
	for _, s := range st {
		e.U64(s)
	}
}

func restoreRNGState(d *snapshot.Decoder) [4]uint64 {
	var st [4]uint64
	for i := range st {
		st[i] = d.U64()
	}
	return st
}

// snapshotHeap serializes a heap region's run state. Geometry (pages,
// hotPages, hotFrac) is reconstructed by Init; the VMA pointer is
// rebound by id against the restored address space.
func (h *heapRegion) snapshot(e *snapshot.Encoder) {
	e.U32(uint32(h.vma.ID))
	snapshotRNGOwner(e, h.rng.State())
	e.U64(h.pages)
	e.U64(h.hotPages)
	e.F64(h.hotFrac)
	e.U64(h.hotStart)
	e.U64(h.drift)
}

func (h *heapRegion) restore(d *snapshot.Decoder, os *guestos.OS) error {
	id := guestos.VMAID(d.U32())
	h.rng.Restore(restoreRNGState(d))
	h.pages = d.U64()
	h.hotPages = d.U64()
	h.hotFrac = d.F64()
	h.hotStart = d.U64()
	h.drift = d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	vma, ok := os.AS.VMAByID(id)
	if !ok {
		return fmt.Errorf("workload: snapshot heap region VMA %d not in restored address space", id)
	}
	h.vma = vma
	return nil
}

func (s *sequentialRegion) snapshot(e *snapshot.Encoder) {
	e.U32(uint32(s.vma.ID))
	e.Int(s.cursor.Pos())
}

func (s *sequentialRegion) restore(d *snapshot.Decoder, os *guestos.OS) error {
	id := guestos.VMAID(d.U32())
	s.cursor.Seek(d.Int())
	if err := d.Err(); err != nil {
		return err
	}
	vma, ok := os.AS.VMAByID(id)
	if !ok {
		return fmt.Errorf("workload: snapshot sequential region VMA %d not in restored address space", id)
	}
	s.vma = vma
	return nil
}

// --- GraphChi ---

// SnapshotState implements Workload.
func (g *GraphChi) SnapshotState(e *snapshot.Encoder) {
	snapshotRNGOwner(e, g.rng.State())
	e.Int(g.epoch)
	g.heap.snapshot(e)
	g.shard.snapshot(e)
}

// RestoreState implements Workload.
func (g *GraphChi) RestoreState(d *snapshot.Decoder, os *guestos.OS) error {
	g.rng.Restore(restoreRNGState(d))
	g.epoch = d.Int()
	if err := g.heap.restore(d, os); err != nil {
		return err
	}
	return g.shard.restore(d, os)
}

// --- X-Stream ---

// SnapshotState implements Workload.
func (x *XStream) SnapshotState(e *snapshot.Encoder) {
	snapshotRNGOwner(e, x.rng.State())
	e.Int(x.epoch)
	e.Int(x.prevStart)
	e.Int(x.prevLen)
	x.heap.snapshot(e)
	x.input.snapshot(e)
}

// RestoreState implements Workload.
func (x *XStream) RestoreState(d *snapshot.Decoder, os *guestos.OS) error {
	x.rng.Restore(restoreRNGState(d))
	x.epoch = d.Int()
	x.prevStart = d.Int()
	x.prevLen = d.Int()
	if err := x.heap.restore(d, os); err != nil {
		return err
	}
	return x.input.restore(d, os)
}

// --- Metis ---

// SnapshotState implements Workload.
func (m *Metis) SnapshotState(e *snapshot.Encoder) {
	snapshotRNGOwner(e, m.rng.State())
	e.Int(m.epoch)
	m.heap.snapshot(e)
}

// RestoreState implements Workload.
func (m *Metis) RestoreState(d *snapshot.Decoder, os *guestos.OS) error {
	m.rng.Restore(restoreRNGState(d))
	m.epoch = d.Int()
	return m.heap.restore(d, os)
}

// --- LevelDB ---

// SnapshotState implements Workload.
func (l *LevelDB) SnapshotState(e *snapshot.Encoder) {
	snapshotRNGOwner(e, l.rng.State())
	snapshotRNGOwner(e, l.sstZipf.RNG().State())
	e.Int(l.epoch)
	e.U64(l.logCursor)
	l.heap.snapshot(e)
}

// RestoreState implements Workload.
func (l *LevelDB) RestoreState(d *snapshot.Decoder, os *guestos.OS) error {
	l.rng.Restore(restoreRNGState(d))
	l.sstZipf.RNG().Restore(restoreRNGState(d))
	l.epoch = d.Int()
	l.logCursor = d.U64()
	return l.heap.restore(d, os)
}

// --- Redis ---

// SnapshotState implements Workload.
func (r *Redis) SnapshotState(e *snapshot.Encoder) {
	snapshotRNGOwner(e, r.rng.State())
	e.Int(r.epoch)
	e.U64(r.aofCursor)
	r.values.snapshot(e)
}

// RestoreState implements Workload.
func (r *Redis) RestoreState(d *snapshot.Decoder, os *guestos.OS) error {
	r.rng.Restore(restoreRNGState(d))
	r.epoch = d.Int()
	r.aofCursor = d.U64()
	return r.values.restore(d, os)
}

// --- Nginx ---

// SnapshotState implements Workload.
func (n *Nginx) SnapshotState(e *snapshot.Encoder) {
	snapshotRNGOwner(e, n.rng.State())
	snapshotRNGOwner(e, n.zipf.RNG().State())
	e.Int(n.epoch)
	n.heap.snapshot(e)
}

// RestoreState implements Workload.
func (n *Nginx) RestoreState(d *snapshot.Decoder, os *guestos.OS) error {
	n.rng.Restore(restoreRNGState(d))
	n.zipf.RNG().Restore(restoreRNGState(d))
	n.epoch = d.Int()
	return n.heap.restore(d, os)
}

// --- MemLat ---

// SnapshotState implements Workload.
func (m *MemLat) SnapshotState(e *snapshot.Encoder) {
	snapshotRNGOwner(e, m.rng.State())
	e.Int(m.epoch)
	m.heap.snapshot(e)
}

// RestoreState implements Workload.
func (m *MemLat) RestoreState(d *snapshot.Decoder, os *guestos.OS) error {
	m.rng.Restore(restoreRNGState(d))
	m.epoch = d.Int()
	return m.heap.restore(d, os)
}

// --- Stream ---

// SnapshotState implements Workload.
func (s *Stream) SnapshotState(e *snapshot.Encoder) {
	snapshotRNGOwner(e, s.rng.State())
	e.Int(s.epoch)
	e.Int(s.cursor.Pos())
	s.heap.snapshot(e)
}

// RestoreState implements Workload.
func (s *Stream) RestoreState(d *snapshot.Decoder, os *guestos.OS) error {
	s.rng.Restore(restoreRNGState(d))
	s.epoch = d.Int()
	s.cursor.Seek(d.Int())
	return s.heap.restore(d, os)
}

// --- WriteHeavy ---

// SnapshotState implements Workload.
func (w *WriteHeavy) SnapshotState(e *snapshot.Encoder) {
	snapshotRNGOwner(e, w.rng.State())
	e.Int(w.epoch)
	w.writers.snapshot(e)
	w.readers.snapshot(e)
}

// RestoreState implements Workload.
func (w *WriteHeavy) RestoreState(d *snapshot.Decoder, os *guestos.OS) error {
	w.rng.Restore(restoreRNGState(d))
	w.epoch = d.Int()
	if err := w.writers.restore(d, os); err != nil {
		return err
	}
	return w.readers.restore(d, os)
}
