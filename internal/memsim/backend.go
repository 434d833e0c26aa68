package memsim

import "heteroos/internal/obs"

// Backend is the machine-model seam: everything the epoch loop needs
// from a pricing model. One implementation ships — the analytic
// Table-3 engine (Engine), which prices every run. The interface stays
// so a test or a benchmark harness can substitute a decorator (a
// per-charge timer, a stub reporting another Name) without touching
// the layers above.
//
// A Backend belongs to one System and is driven from that System's
// epoch loop only; implementations need no internal locking.
type Backend interface {
	// Name identifies the pricing model ("analytic"). A checkpoint
	// records it, and restore refuses a snapshot taken under another.
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

// Option configures a backend at construction. A backend's model
// parameters are fixed once built.
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

// Builder constructs a Backend over a machine. core.Config carries one
// (nil means AnalyticBackend), and core.NewSystem invokes it with the
// machine it just built plus the system-level options (CPU model, obs
// registry); exp.Options.NewBackend lets a harness supply one per
// sweep cell.
type Builder func(m *Machine, opts ...Option) Backend

// BackendAnalytic is the analytic engine's Name.
const BackendAnalytic = "analytic"

// AnalyticBackend is the Builder for the analytic Table-3 engine.
func AnalyticBackend(m *Machine, opts ...Option) Backend { return NewAnalytic(m, opts...) }
