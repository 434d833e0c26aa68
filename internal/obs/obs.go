package obs

import (
	"strings"

	"heteroos/internal/sim"
)

// DroppedCounterName is the root-scope counter mirroring
// Tracer.Dropped so snapshots and exports surface silent event loss.
const DroppedCounterName = "tracer_dropped_events"

// Obs bundles one run's tracer and metrics registry. A nil *Obs means
// observability is off; every instrumented layer guards its probes
// with a nil check on its attached scope, so the default path never
// touches this package at runtime.
type Obs struct {
	// Tracer is the run's event ring.
	Tracer *Tracer
	// Metrics is the run's instrument registry (the scope-tree root for
	// this handle; job handles built by JobScope share the parent's tree
	// through a child registry).
	Metrics   *Registry
	runTag    string
	epochHook func(epoch int)
}

// New builds an enabled observability handle with a default-capacity
// tracer (no sinks — events are counted and dropped until a sink is
// attached) and an empty registry.
func New() *Obs {
	o := &Obs{Tracer: NewTracer(0), Metrics: NewRegistry()}
	o.Tracer.dropCounter = o.Metrics.Counter(DroppedCounterName)
	return o
}

// JobScope derives a child handle for one job (a sweep point): its
// own tracer ring — tracers are single-goroutine, so concurrent jobs
// must not share one — and a
// child registry scoped under label, so the parent's Snapshot sees the
// job's metrics under "label/..." and Rollup aggregates across jobs.
// Closing the child closes only the child's tracer.
func (o *Obs) JobScope(label string) *Obs {
	if o == nil {
		return nil
	}
	reg := o.Metrics.Scope(sanitizeScope(label))
	c := &Obs{Tracer: NewTracer(0), Metrics: reg, runTag: label}
	c.Tracer.dropCounter = reg.Counter(DroppedCounterName)
	return c
}

// NestedJobScope is JobScope for hierarchical identities: each segment
// becomes one scope level, so NestedJobScope("host", "3") lands the
// child's metrics under "host/3/..." of the parent tree. A fleet of
// hosts then shares one "host" subtree, and the parent's Snapshot can
// slice per host or Rollup across all of them. Like JobScope, the
// child gets its own tracer (tracers are single-goroutine) and closing
// it closes only that tracer.
func (o *Obs) NestedJobScope(segments ...string) *Obs {
	if o == nil {
		return nil
	}
	reg := o.Metrics
	for _, seg := range segments {
		reg = reg.Scope(sanitizeScope(seg))
	}
	c := &Obs{Tracer: NewTracer(0), Metrics: reg, runTag: strings.Join(segments, ScopeSep)}
	c.Tracer.dropCounter = reg.Counter(DroppedCounterName)
	return c
}

// sanitizeScope makes label a single scope-path segment: ScopeSep
// would silently split it into two levels, so it is replaced.
func sanitizeScope(label string) string {
	if label == "" {
		return "job"
	}
	return strings.ReplaceAll(label, ScopeSep, "_")
}

// SetRunTag labels the handle with the run's identity (experiment
// label, CLI config, seed) so exporters can stamp their output.
func (o *Obs) SetRunTag(tag string) {
	if o != nil {
		o.runTag = tag
	}
}

// RunTag returns the label set by SetRunTag.
func (o *Obs) RunTag() string {
	if o == nil {
		return ""
	}
	return o.runTag
}

// SetEpochHook installs fn to be called once per completed system
// epoch (from the simulation goroutine). Live exporters use it to
// publish fresh snapshots without the simulation ever sharing its
// registries with another goroutine.
func (o *Obs) SetEpochHook(fn func(epoch int)) {
	if o != nil {
		o.epochHook = fn
	}
}

// EpochTick invokes the epoch hook, if any. Called by core at the end
// of each StepEpoch; nil-receiver safe like every Obs method.
func (o *Obs) EpochTick(epoch int) {
	if o != nil && o.epochHook != nil {
		o.epochHook(epoch)
	}
}

// DroppedWarning returns a human-readable warning when the tracer
// discarded events (ring overflow with no sink attached), or "" when
// nothing was lost. CLIs print it to stderr at close.
func (o *Obs) DroppedWarning() string {
	if o == nil || o.Tracer == nil || o.Tracer.Dropped() == 0 {
		return ""
	}
	n := o.Tracer.Dropped()
	return "warning: event tracer dropped " + utoa(n) +
		" events (ring overflow with no sink attached; pass -events FILE to capture the full stream)"
}

// Close flushes the tracer and closes its sinks.
func (o *Obs) Close() error {
	if o == nil || o.Tracer == nil {
		return nil
	}
	return o.Tracer.Close()
}

// Scope is the per-VM view layers hold: it stamps emitted events with
// the VM id and the VM's simulated clock, and namespaces metrics in a
// per-VM child registry ("vm1/guestos.demotions"). Core builds one
// scope per VM at boot and hands it down; a nil *Scope disables every
// method, which is what makes `if scope != nil` the only guard call
// sites need.
type Scope struct {
	o   *Obs
	reg *Registry
	vm  int32
	now func() sim.Duration
}

// Scope derives a scope for vm whose events are timestamped by now.
// vm 0 is the system scope (VMM-global actions such as DRF
// rebalances); its metrics live on the handle's root registry, while
// vm N metrics live in the "vmN" child scope.
func (o *Obs) Scope(vm int, now func() sim.Duration) *Scope {
	if o == nil {
		return nil
	}
	reg := o.Metrics
	if vm != 0 {
		reg = reg.Scope("vm" + itoa(vm))
	}
	return &Scope{o: o, reg: reg, vm: int32(vm), now: now}
}

// Registry returns the scope's registry (the per-VM child, or the
// handle root for the system scope). Nil-receiver safe.
func (s *Scope) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// itoa is a tiny positive-int formatter; scopes are built at boot so
// this is not hot, it just avoids importing strconv into every caller
// chain for two-digit VM ids.
func itoa(v int) string {
	if v <= 0 {
		return "0"
	}
	return utoa(uint64(v))
}

// utoa formats an unsigned integer.
func utoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// Counter registers (or finds) the counter name in the scope registry.
func (s *Scope) Counter(name string) *Counter {
	return s.reg.Counter(name)
}

// Gauge registers (or finds) the gauge name in the scope registry.
func (s *Scope) Gauge(name string) *Gauge {
	return s.reg.Gauge(name)
}

// Histogram registers (or finds) the histogram name in the scope
// registry.
func (s *Scope) Histogram(name string) *Histogram {
	return s.reg.Histogram(name)
}

// Emit records an event stamped with the scope's VM id and current
// simulated time. Zero-allocation: the event lands in the tracer's
// preallocated ring.
func (s *Scope) Emit(typ Type, dir Dir, tier uint8, pfn, n, aux uint64, cost float64) {
	s.o.Tracer.Emit(Event{
		Time: s.now(),
		VM:   s.vm,
		Type: typ,
		Dir:  dir,
		Tier: tier,
		PFN:  pfn,
		N:    n,
		Aux:  aux,
		Cost: cost,
	})
}
