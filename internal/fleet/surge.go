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
// Its snapshot carries the window state plus the inner workload's
// cursor, so EmigrateVM (or a checkpoint) hands both to the freshly
// built wrapper on the destination host (or the restored one) — a
// surging VM keeps surging mid-flight.
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

// SnapshotState implements workload.Workload. The byte before the
// inner state is a presence flag, always true; reading rejects false
// because checkpoint files are outside input.
func (w *surgeWorkload) SnapshotState(c *snapshot.Codec, os *guestos.OS) error {
	c.Bool(&w.active)
	c.Int(&w.factor)
	c.Bool(&w.done)
	inner := true
	c.Bool(&inner)
	if !inner {
		return fmt.Errorf("fleet: snapshot of workload %T carries no inner state", w.inner)
	}
	return w.inner.SnapshotState(c, os)
}
