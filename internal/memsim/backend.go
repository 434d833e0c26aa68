package memsim

import "heteroos/internal/obs"

// Backend is the machine-model seam: everything the epoch loop needs
// from a pricing model, abstracted so implementations of different
// fidelity/cost can be slotted in without touching the layers above
// (the fakemachine kvm/qemu/uml backend-selection shape). Two
// implementations ship:
//
//   - analytic (Engine): the paper's Table-3 model — the default, and
//     the model every run prices with unless it replays a trace.
//   - replay (Replay): consumes a recorded per-epoch access stream and
//     returns the recorded costs — trace-driven simulation in the
//     Virtuoso imitation style.
//
// A Backend belongs to one System and is driven from that System's
// epoch loop only; implementations need no internal locking.
type Backend interface {
	// Name identifies the implementation ("analytic", "replay", or a
	// decorated form like "record(analytic)").
	Name() string
	// Machine exposes the machine whose tier specs the backend prices
	// against.
	Machine() *Machine
	// EffectiveMPKI converts a workload's reference MPKI (measured with
	// working set wssBytes on the reference LLC) into the effective
	// miss rate under llc. The analytic backend applies the power-law
	// miss curve.
	EffectiveMPKI(llc LLC, mpki float64, wssBytes int64) float64
	// Charge prices one epoch of one VM's execution.
	Charge(EpochCharge) EpochCost
}

// Option configures a backend at construction. The exported mutable
// fields the Engine used to carry (CPU, Obs) are gone: a backend's
// model parameters are fixed once built, which is what lets one System
// hold any Backend without knowing its concrete type.
type Option func(*backendOptions)

type backendOptions struct {
	cpu CPU
	reg *obs.Registry
}

// WithCPU sets the compute-side model (default DefaultCPU).
func WithCPU(cpu CPU) Option {
	return func(o *backendOptions) { o.cpu = cpu }
}

// WithObs attaches per-charge accounting: the backend registers its
// instrument set in reg and observes every priced epoch. Observation
// never changes pricing.
func WithObs(reg *obs.Registry) Option {
	return func(o *backendOptions) { o.reg = reg }
}

// applyOptions resolves the option list against the defaults.
func applyOptions(opts []Option) backendOptions {
	o := backendOptions{cpu: DefaultCPU()}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// engineObs builds the shared instrument set when observability was
// requested (nil otherwise).
func (o *backendOptions) engineObs() *EngineObs {
	if o.reg == nil {
		return nil
	}
	return NewEngineObs(o.reg)
}

// Builder constructs a Backend over a machine. core.Config carries one
// so backend selection happens per job: the runner and the CLIs pass a
// Builder down, and core.NewSystem invokes it with the machine it just
// built plus the system-level options (CPU model, obs registry).
type Builder func(m *Machine, opts ...Option) Backend

// Backend names, as reported by Name.
const (
	BackendAnalytic = "analytic"
	BackendReplay   = "replay"
)

// AnalyticBackend is the Builder for the analytic Table-3 engine.
func AnalyticBackend(m *Machine, opts ...Option) Backend { return NewAnalytic(m, opts...) }
