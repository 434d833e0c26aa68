package workload

import (
	"fmt"

	"heteroos/internal/guestos"
	"heteroos/internal/snapshot"
)

// codeVMA codes a region's VMA by id; reading rebinds *v to the VMA with
// that id in the restored address space.
func codeVMA(c *snapshot.Codec, v **guestos.VMA, os *guestos.OS, region string) error {
	id := uint32((*v).ID)
	c.U32(&id)
	if err := c.Err(); err != nil || !c.Reading() {
		return err
	}
	restored, ok := os.AS.VMAByID(guestos.VMAID(id))
	if !ok {
		return fmt.Errorf("workload: snapshot %s region VMA %d not in restored address space", region, id)
	}
	*v = restored
	return nil
}

// snapshot codes a heap region's run state. The scratch arrays keep
// their Init geometry; the VMA pointer is rebound by id.
func (h *heapRegion) snapshot(c *snapshot.Codec, os *guestos.OS) error {
	if err := codeVMA(c, &h.vma, os, "heap"); err != nil {
		return err
	}
	c.RNG(h.rng)
	c.U64(&h.pages)
	c.U64(&h.hotPages)
	c.F64(&h.hotFrac)
	c.U64(&h.hotStart)
	c.U64(&h.drift)
	if err := c.Err(); err != nil || !c.Reading() {
		return err
	}
	// draw's wrap needs hotStart < pages, and the scratch arrays were
	// sized for the Init geometry.
	if h.pages != uint64(len(h.counts)) || h.hotPages < 1 || h.hotPages > h.pages ||
		h.hotStart >= h.pages || !(h.hotFrac >= 0 && h.hotFrac <= 1) {
		return fmt.Errorf("workload: snapshot heap region geometry pages %d hot %d start %d frac %v invalid for a %d-page region",
			h.pages, h.hotPages, h.hotStart, h.hotFrac, len(h.counts))
	}
	h.setModuli()
	return nil
}

func (s *sequentialRegion) snapshot(c *snapshot.Codec, os *guestos.OS) error {
	if err := codeVMA(c, &s.vma, os, "sequential"); err != nil {
		return err
	}
	pos := s.cursor.Pos()
	c.Int(&pos)
	s.cursor.Seek(pos)
	return c.Err()
}

// SnapshotState implements Workload.
func (g *GraphChi) SnapshotState(c *snapshot.Codec, os *guestos.OS) error {
	c.RNG(g.rng)
	c.Int(&g.epoch)
	if err := g.heap.snapshot(c, os); err != nil {
		return err
	}
	return g.shard.snapshot(c, os)
}

// SnapshotState implements Workload.
func (x *XStream) SnapshotState(c *snapshot.Codec, os *guestos.OS) error {
	c.RNG(x.rng)
	c.Int(&x.epoch)
	c.Int(&x.prevStart)
	c.Int(&x.prevLen)
	if err := x.heap.snapshot(c, os); err != nil {
		return err
	}
	return x.input.snapshot(c, os)
}

// SnapshotState implements Workload.
func (m *Metis) SnapshotState(c *snapshot.Codec, os *guestos.OS) error {
	c.RNG(m.rng)
	c.Int(&m.epoch)
	return m.heap.snapshot(c, os)
}

// SnapshotState implements Workload.
func (l *LevelDB) SnapshotState(c *snapshot.Codec, os *guestos.OS) error {
	c.RNG(l.rng)
	c.RNG(l.sstZipf.RNG())
	c.Int(&l.epoch)
	c.U64(&l.logCursor)
	return l.heap.snapshot(c, os)
}

// SnapshotState implements Workload.
func (r *Redis) SnapshotState(c *snapshot.Codec, os *guestos.OS) error {
	c.RNG(r.rng)
	c.Int(&r.epoch)
	c.U64(&r.aofCursor)
	return r.values.snapshot(c, os)
}

// SnapshotState implements Workload.
func (n *Nginx) SnapshotState(c *snapshot.Codec, os *guestos.OS) error {
	c.RNG(n.rng)
	c.RNG(n.zipf.RNG())
	c.Int(&n.epoch)
	return n.heap.snapshot(c, os)
}

// SnapshotState implements Workload.
func (m *MemLat) SnapshotState(c *snapshot.Codec, os *guestos.OS) error {
	c.RNG(m.rng)
	c.Int(&m.epoch)
	return m.heap.snapshot(c, os)
}

// SnapshotState implements Workload.
func (s *Stream) SnapshotState(c *snapshot.Codec, os *guestos.OS) error {
	c.RNG(s.rng)
	c.Int(&s.epoch)
	pos := s.cursor.Pos()
	c.Int(&pos)
	s.cursor.Seek(pos)
	return s.heap.snapshot(c, os)
}

// SnapshotState implements Workload.
func (w *WriteHeavy) SnapshotState(c *snapshot.Codec, os *guestos.OS) error {
	c.RNG(w.rng)
	c.Int(&w.epoch)
	if err := w.writers.snapshot(c, os); err != nil {
		return err
	}
	return w.readers.snapshot(c, os)
}
