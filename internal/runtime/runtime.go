// Package runtime runs the WGTT protocol cores — the controller's §3.1.1
// selection rule, the §3.1.2 stop→start→ack switching protocol with its
// 30 ms stop retransmission, the APs' §3.2 forwarding logic — in real time.
// There is one event loop, sim.Engine, and the cores schedule on it in both
// modes: the simulator advances it in virtual time (fully deterministic —
// every evaluation run in §5), and Wall paces it against the operating
// system's clock for multi-process deployments over a real backhaul
// (cmd/wgtt-live, DESIGN.md §12).
//
// Either way every callback runs on one goroutine, one at a time, in the
// engine's (time, scheduling order), so protocol code needs no locks.
// Virtual time additionally guarantees bit-for-bit determinism; wall time
// trades that for realness — same code, same timers, real nondeterministic
// arrival order.
package runtime

import "wgtt/internal/sim"

// Virtual returns eng. It remains only because the benchmark program calls
// it; the next benchmark change drops that call and deletes it.
func Virtual(eng *sim.Engine) *sim.Engine { return eng }
