// Package runtime abstracts the event loop under the WGTT protocol cores,
// so the controller's §3.1.1 selection rule, the §3.1.2 stop→start→ack
// switching protocol, and the APs' §3.2 forwarding logic can run unchanged
// on two substrates: the discrete-event simulator (virtual time, fully
// deterministic — every evaluation run in §5) and a wall-clock driver that
// paces the same timers against real time for multi-process deployments
// over a real backhaul (cmd/wgtt-live).
//
// The contract, on both substrates, is the one-event-at-a-time execution
// model of DESIGN.md §5 and §12: every callback handed to a Clock runs on a
// single goroutine, never concurrently with another callback from the same
// Clock, so protocol code needs no locks. Virtual time additionally
// guarantees bit-for-bit determinism; wall time trades that for realness —
// same code, same timers, real nondeterministic arrival order.
package runtime

import "wgtt/internal/sim"

// Clock schedules the protocol cores' timers: Now for timestamps, After to
// arm a callback, and cancellation through the returned Timer's Stop. It is
// implemented by the virtual-time simulator (Virtual) and by the wall-clock
// driver (Wall).
//
// Callbacks run one at a time on the clock's run-loop goroutine. After is
// safe to call from any goroutine on a Wall clock (transport receive paths
// use it to post inbound work onto the loop); on a Virtual clock it must be
// called from simulation context, like the sim.Engine it wraps.
type Clock interface {
	// Now returns the current time: virtual nanoseconds since scenario
	// start, or wall nanoseconds since the driver started.
	Now() sim.Time
	// After schedules fn to run once, d from now (d = 0 means as soon as
	// possible, after already-due work; negative delays are a caller bug —
	// the virtual clock panics exactly like sim.Engine). The returned
	// Timer cancels it.
	After(d sim.Time, fn func()) Timer
}

// Timer is a handle to one scheduled callback. Implementations' zero/inert
// handles report Stop false; a nil Timer must not be used.
type Timer interface {
	// Stop cancels the callback if it has not run yet, reporting whether
	// the cancellation prevented it from running.
	Stop() bool
}

// virtualClock adapts *sim.Engine to Clock. The adaptation is transparent:
// After delegates to Engine.After, so scheduling order, same-instant FIFO
// ordering, and panics on negative delays are exactly the engine's, and a
// simulation driven through the Clock interface is byte-identical to one
// driven against the engine directly.
type virtualClock struct{ eng *sim.Engine }

// Virtual returns the virtual-time Clock backed by the given engine.
// sim.Timer already satisfies Timer, so handles pass through unwrapped.
func Virtual(eng *sim.Engine) Clock { return virtualClock{eng} }

// Now implements Clock.
func (v virtualClock) Now() sim.Time { return v.eng.Now() }

// After implements Clock.
func (v virtualClock) After(d sim.Time, fn func()) Timer { return v.eng.After(d, fn) }
