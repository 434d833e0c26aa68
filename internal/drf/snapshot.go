package drf

import (
	"fmt"

	"heteroos/internal/snapshot"
)

// SnapshotState codes the allocator's mutable state: consumption, and
// every client's allocation vector in registration order (the order
// the checkpoint lists clients in). Capacities
// and weights are construction-time parameters and are not coded;
// reading requires an allocator with the same resource dimensions.
func (a *Allocator) SnapshotState(c *snapshot.Codec) error {
	n := uint32(len(a.capacity))
	c.U32(&n)
	if int(n) != len(a.capacity) {
		return fmt.Errorf("drf: snapshot has %d resources, allocator has %d", n, len(a.capacity))
	}
	c.F64s(&a.consumed)
	if c.Reading() {
		a.clients = make(map[ClientID]*client)
	}
	snapshot.Slice(c, &a.order, func(id *ClientID) {
		u := uint32(*id)
		c.U32(&u)
		*id = ClientID(u)
		cl := a.clients[*id]
		if cl == nil {
			cl = &client{}
			a.clients[*id] = cl
		}
		c.F64s(&cl.alloc)
	})
	if err := c.Err(); err != nil {
		return err
	}
	for _, id := range a.order {
		if got := len(a.clients[id].alloc); got != len(a.capacity) {
			return fmt.Errorf("drf: snapshot client %d allocation has %d resources, want %d", id, got, len(a.capacity))
		}
	}
	return nil
}
