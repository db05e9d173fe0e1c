// Package sim provides the discrete-event simulation engine that underlies
// the WGTT reproduction: a virtual clock, an ordered event queue, cancellable
// timers, and deterministic named random-number streams.
//
// All simulated components (radio channel, MAC, APs, controller, transports)
// share one Engine and advance strictly in virtual-time order, which makes
// every experiment in the paper's evaluation (§5) reproducible from a
// single seed. The engine has no paper counterpart of its own — it is the
// substrate the §3 system and §5 experiments run on; its timers pace the
// protocol deadlines (the §3.1.2 30 ms stop-retransmission timeout, the
// §3.1.1 10 ms selection window).
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since scenario start.
// It doubles as a duration: the zero Time is both "scenario start" and
// "zero elapsed". Using one type keeps component arithmetic simple.
type Time int64

// Convenient virtual-time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds returns t expressed in milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Microseconds returns t expressed in microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// FromSeconds converts a floating-point second count into a sim.Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// String renders the time with a unit that keeps it readable, e.g. "12.5ms".
func (t Time) String() string {
	switch {
	case t >= Second || t <= -Second:
		return fmt.Sprintf("%.6gs", t.Seconds())
	case t >= Millisecond || t <= -Millisecond:
		return fmt.Sprintf("%.6gms", t.Milliseconds())
	case t >= Microsecond || t <= -Microsecond:
		return fmt.Sprintf("%.6gus", t.Microseconds())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}
