// Package drf implements the multi-resource fair-sharing policy of
// Section 4.2: weighted Dominant Resource Fairness (Ghodsi et al.,
// NSDI'11) extended with per-resource weights as in the paper's
// Algorithm 1. The single-resource max-min baseline it replaces is
// vmm.MaxMinShare.
//
// Each memory type is a resource. The Allocator keeps the books:
// Grant admits a demand while capacity allows (Algorithm 1's C + D_i <= R
// check), Release and RemoveClient return it, and DominantShare reports
// a VM's largest weighted share of any resource. vmm.DRFShare does the
// arbitration: when a tier runs short it balloons the VM with the
// highest dominant share. The paper uses static weights (FastMem 2,
// SlowMem 1) so that small FastMem capacities still register as
// dominant.
package drf

import (
	"errors"
	"fmt"
)

// ErrUnknownClient is returned for operations on unregistered clients.
var ErrUnknownClient = errors.New("drf: unknown client")

// ErrInsufficient is returned when a grant would exceed capacity.
var ErrInsufficient = errors.New("drf: insufficient capacity")

// ClientID identifies one guest VM.
type ClientID int32

// Allocator is a weighted-DRF allocator over m resources.
type Allocator struct {
	capacity []float64 // R: total capacities
	weights  []float64 // per-resource dominant-share weights
	consumed []float64 // C: currently granted
	clients  map[ClientID]*client
	order    []ClientID // registration order, the checkpoint's client order
}

type client struct {
	alloc []float64 // VM_i: current allocation vector
}

// New builds an allocator. capacities and weights must have equal,
// positive length; weights must be positive.
func New(capacities, weights []float64) (*Allocator, error) {
	if len(capacities) == 0 || len(capacities) != len(weights) {
		return nil, fmt.Errorf("drf: capacities/weights shape mismatch")
	}
	for i, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("drf: non-positive weight for resource %d", i)
		}
		if capacities[i] < 0 {
			return nil, fmt.Errorf("drf: negative capacity for resource %d", i)
		}
	}
	return &Allocator{
		capacity: append([]float64(nil), capacities...),
		weights:  append([]float64(nil), weights...),
		consumed: make([]float64, len(capacities)),
		clients:  make(map[ClientID]*client),
	}, nil
}

// AddClient registers a VM with zero allocation.
func (a *Allocator) AddClient(id ClientID) error {
	if _, ok := a.clients[id]; ok {
		return fmt.Errorf("drf: client %d already registered", id)
	}
	a.clients[id] = &client{alloc: make([]float64, len(a.capacity))}
	a.order = append(a.order, id)
	return nil
}

// RemoveClient releases a VM's entire allocation.
func (a *Allocator) RemoveClient(id ClientID) error {
	c, ok := a.clients[id]
	if !ok {
		return ErrUnknownClient
	}
	for i, v := range c.alloc {
		a.consumed[i] -= v
	}
	delete(a.clients, id)
	for i, oid := range a.order {
		if oid == id {
			a.order = append(a.order[:i], a.order[i+1:]...)
			break
		}
	}
	return nil
}

// DominantShare computes s_i = max_j (w_j * vm_{i,j} / r_j): the largest
// weighted share the client holds of any resource.
func (a *Allocator) DominantShare(id ClientID) (float64, error) {
	c, ok := a.clients[id]
	if !ok {
		return 0, ErrUnknownClient
	}
	return a.dominantShare(c), nil
}

func (a *Allocator) dominantShare(c *client) float64 {
	s := 0.0
	for j, v := range c.alloc {
		if a.capacity[j] == 0 {
			continue
		}
		if share := a.weights[j] * v / a.capacity[j]; share > s {
			s = share
		}
	}
	return s
}

// Available reports remaining capacity of resource j.
func (a *Allocator) Available(j int) float64 { return a.capacity[j] - a.consumed[j] }

// Grant gives demand to id unconditionally if capacity allows
// (Algorithm 1's C + D_i <= R check). It does not arbitrate between
// competing clients: vmm.DRFShare does, by comparing DominantShare.
func (a *Allocator) Grant(id ClientID, demand []float64) error {
	c, ok := a.clients[id]
	if !ok {
		return ErrUnknownClient
	}
	if len(demand) != len(a.capacity) {
		return fmt.Errorf("drf: demand dimension %d != %d", len(demand), len(a.capacity))
	}
	for j, d := range demand {
		if d < 0 {
			return fmt.Errorf("drf: negative demand for resource %d", j)
		}
		if a.consumed[j]+d > a.capacity[j]+1e-9 {
			return fmt.Errorf("%w: resource %d (want %v, free %v)",
				ErrInsufficient, j, d, a.Available(j))
		}
	}
	for j, d := range demand {
		a.consumed[j] += d
		c.alloc[j] += d
	}
	return nil
}

// Release returns part of a client's allocation.
func (a *Allocator) Release(id ClientID, amount []float64) error {
	c, ok := a.clients[id]
	if !ok {
		return ErrUnknownClient
	}
	for j, d := range amount {
		if d < 0 || d > c.alloc[j]+1e-9 {
			return fmt.Errorf("drf: release of %v exceeds allocation %v (resource %d)", d, c.alloc[j], j)
		}
	}
	for j, d := range amount {
		c.alloc[j] -= d
		a.consumed[j] -= d
	}
	return nil
}
