package main

import (
	"sync"
	"time"

	"heteroos/internal/memsim"
	"heteroos/internal/obs"
)

// meter decorates a memsim.Backend to count priced VM-epochs (one
// Charge per VM per epoch), stamp when pricing starts and ends, and sum
// the host time spent inside Charge. Pricing is delegated unchanged, so
// a metered run produces the same output as a bare one; the benchmark's
// tests pin that.
//
// A meter belongs to one core.System and is written only from that
// system's epoch loop. Readers look at it after the loop's goroutine has
// finished (a sweep cell's future resolved, or a fleet round's barrier).
type meter struct {
	memsim.Backend

	built     time.Time // when the backend builder ran (system boot)
	first     time.Time // entry of the first Charge
	last      time.Time // exit of the latest Charge
	charges   uint64
	chargeDur time.Duration // host time inside Charge
}

func (m *meter) Charge(c memsim.EpochCharge) memsim.EpochCost {
	t0 := time.Now()
	if m.charges == 0 {
		m.first = t0
	}
	cost := m.Backend.Charge(c)
	m.last = time.Now()
	m.chargeDur += m.last.Sub(t0)
	m.charges++
	return cost
}

// sweepProbe hands every sweep cell a meter through the
// exp.Options.NewBackend hook and, for traced runs, an observability
// handle through NewObs. It keeps both for reading once the sweep has
// returned; meters are kept in submission order.
type sweepProbe struct {
	mu      sync.Mutex
	meters  []*meter
	handles []*obs.Obs
}

// newBackend prices a cell through the analytic backend, wrapped in a
// fresh meter.
func (p *sweepProbe) newBackend(string, uint64) memsim.Builder {
	m := &meter{}
	p.mu.Lock()
	p.meters = append(p.meters, m)
	p.mu.Unlock()
	return func(mc *memsim.Machine, opts ...memsim.Option) memsim.Backend {
		m.built = time.Now()
		m.Backend = memsim.AnalyticBackend(mc, opts...)
		return m
	}
}

func (p *sweepProbe) newObs(string, uint64) *obs.Obs {
	h := obs.New()
	p.mu.Lock()
	p.handles = append(p.handles, h)
	p.mu.Unlock()
	return h
}

func (p *sweepProbe) cells() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.meters)
}
