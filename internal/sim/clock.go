// Package sim provides the simulation foundation shared by every other
// package in the repository: a monotone nanosecond clock, a deterministic
// pseudo-random number generator, and the sampling distributions used by
// the workload models.
//
// Nothing in this package knows about memory, VMs, or policies; it exists
// so that all higher layers agree on how simulated time advances and how
// randomness is produced reproducibly.
package sim

import "fmt"

// Time is a point on the simulated clock, in nanoseconds since simulation
// start. It is a distinct type so that simulated durations cannot be
// accidentally mixed with wall-clock time.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Common durations, mirroring time.Duration constants but on the
// simulated clock.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// String renders a duration using the most natural unit.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", float64(d)/float64(Second))
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(d)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// Seconds reports the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Clock is the monotone simulated clock. The zero value is a clock at
// time zero, ready to use.
type Clock struct {
	now Time
}

// Now reports the current simulated time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d. Advancing by a negative duration
// panics: simulated time is monotone by construction and a negative
// advance always indicates an accounting bug in the caller.
func (c *Clock) Advance(d Duration) Time {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative clock advance %d", d))
	}
	c.now += Time(d)
	return c.now
}

// Restore sets the clock to an absolute point, for resuming a
// checkpointed simulation. It is the only sanctioned way to move a
// clock other than Advance; ordinary simulation code must never call
// it.
func (c *Clock) Restore(t Time) { c.now = t }
