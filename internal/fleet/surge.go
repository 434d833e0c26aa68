package fleet

import (
	"fmt"

	"heteroos/internal/guestos"
	"heteroos/internal/snapshot"
	"heteroos/internal/workload"
)

// surgeWorkload wraps every fleet VM's workload so a surge window can
// multiply its demand: while active, Step runs the inner workload
// factor times per epoch (a hog VM allocating and touching at a
// multiple of its steady rate). Inactive, it is a single branch.
//
// The wrapper also implements workload.Snapshotter, which is what
// makes fleet VMs migratable and checkpointable: EmigrateVM (or a
// checkpoint) captures the wrapper's window state plus the inner
// workload's cursor, and the freshly built wrapper on the destination
// host (or the restored one) gets both back — a surging VM keeps
// surging mid-flight.
type surgeWorkload struct {
	inner  workload.Workload
	factor int
	active bool
	// done records whether the inner workload ran to completion, which
	// distinguishes "finished" from "shut down mid-run" in the result.
	done bool
}

func (w *surgeWorkload) Profile() workload.Profile { return w.inner.Profile() }

func (w *surgeWorkload) Init(os *guestos.OS) error { return w.inner.Init(os) }

func (w *surgeWorkload) Step(os *guestos.OS) (uint64, bool) {
	steps := 1
	if w.active && w.factor > 1 {
		steps = w.factor
	}
	var instr uint64
	var done bool
	for i := 0; i < steps && !done; i++ {
		var n uint64
		n, done = w.inner.Step(os)
		instr += n
	}
	if done {
		w.done = true
	}
	return instr, done
}

// SnapshotState implements workload.Snapshotter.
func (w *surgeWorkload) SnapshotState(e *snapshot.Encoder) {
	e.Bool(w.active)
	e.Int(w.factor)
	e.Bool(w.done)
	ws, ok := w.inner.(workload.Snapshotter)
	e.Bool(ok)
	if ok {
		ws.SnapshotState(e)
	}
}

// RestoreState implements workload.Snapshotter.
func (w *surgeWorkload) RestoreState(d *snapshot.Decoder, os *guestos.OS) error {
	w.active = d.Bool()
	w.factor = d.Int()
	w.done = d.Bool()
	if !d.Bool() {
		return fmt.Errorf("fleet: workload %T did not support snapshotting", w.inner)
	}
	ws, ok := w.inner.(workload.Snapshotter)
	if !ok {
		return fmt.Errorf("fleet: workload %T cannot restore snapshotted state", w.inner)
	}
	return ws.RestoreState(d, os)
}
