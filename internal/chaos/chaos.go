// Package chaos is the deterministic fault-injection engine for the WGTT
// reproduction (DESIGN.md §11). The paper evaluates the system on the happy
// path — APs never die, the backhaul never degrades — but a transit network
// strings its picocells along outdoor poles on a shared wired segment, so
// the interesting operational question is what a §3.1.2-style control plane
// does when parts of it fail. This package answers that reproducibly: a
// Plan of fault events — AP crashes and restarts, backhaul loss bursts and
// latency spikes, CSI-report blackouts, controller outages — is derived
// ahead of time from the scenario seed via named sim.RNG streams, then an
// Injector replays it against the live network off the simulation clock,
// on top of a steady loss of switching-protocol control messages.
//
// Determinism is the design center, mirroring internal/fleet: every draw
// comes from a stream named after what it decides ("chaos/ap/3",
// "chaos/burst/drop"), never from shared state, so the same seed yields the
// same fault timeline regardless of worker count, event interleaving, or
// which other components consume randomness. Chaos left unconfigured
// touches nothing: no hooks are installed and no timers scheduled, so a
// chaos-free run is byte-identical to one built before this package
// existed.
package chaos

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"wgtt/internal/backhaul"
	"wgtt/internal/metrics"
	"wgtt/internal/packet"
	"wgtt/internal/sim"
)

// APTarget is the crash surface of one AP (implemented by *ap.AP).
type APTarget interface {
	Crash()
	Restart()
	Down() bool
}

// ControllerTarget is the crash surface of one controller instance
// (implemented by *controller.Controller, and by *federation.Domain, which
// core.Build arms). Pass nil when the network has no controller — and take
// care to pass a true nil, not a typed-nil pointer.
type ControllerTarget interface {
	Fail()
	Recover()
	Down() bool
}

// EventKind enumerates the injectable faults.
type EventKind int

// The fault vocabulary. Crash/restart pairs are explicit events (BuildPlan
// emits both) so a Plan is a complete, inspectable timeline.
const (
	// APCrash power-fails one AP: its radio goes silent mid-frame, it
	// ignores the backhaul, and its cyclic-queue state is lost (the restart
	// is a cold start; see ap.Crash/ap.Restart).
	APCrash EventKind = iota
	// APRestart brings a crashed AP back with empty rings.
	APRestart
	// BackhaulBurst opens a window during which every backhaul message is
	// dropped with the configured probability — control and data alike.
	BackhaulBurst
	// LatencySpike opens a window during which every backhaul delivery
	// takes extra one-way latency.
	LatencySpike
	// CSIBlackout opens a window during which CSI reports are dropped on
	// the backhaul: the controller flies blind while data still flows.
	CSIBlackout
	// ControllerCrash takes the controller down (controller.Fail).
	ControllerCrash
	// ControllerRestart recovers it with cold soft state (controller.Recover).
	ControllerRestart
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case APCrash:
		return "ap-crash"
	case APRestart:
		return "ap-restart"
	case BackhaulBurst:
		return "backhaul-burst"
	case LatencySpike:
		return "latency-spike"
	case CSIBlackout:
		return "csi-blackout"
	case ControllerCrash:
		return "controller-crash"
	case ControllerRestart:
		return "controller-restart"
	}
	return fmt.Sprintf("chaos-kind-%d", int(k))
}

// Event is one scheduled fault.
type Event struct {
	At   sim.Time
	Kind EventKind
	// AP is the target AP id for APCrash/APRestart (ignored otherwise).
	AP int
	// Dur is the window length for burst/spike/blackout events.
	Dur sim.Time
}

// Config parameterizes fault generation. Every MTBF is the mean of an
// exponential inter-arrival distribution; 0 disables that fault class, and
// the zero Config generates nothing (Script-only plans are how single
// targeted faults, a controller crash among them, are injected).
type Config struct {
	// APCrashMTBF is the per-AP mean time between crashes; each crashed AP
	// comes back after APDowntime with cold queues. At most maxAPDown APs
	// are down at once, and the injector never crashes the last alive AP.
	APCrashMTBF sim.Time
	APDowntime  sim.Time

	// Backhaul loss bursts: windows of burstLen during which every backhaul
	// message is dropped with probability burstLoss.
	BackhaulBurstMTBF sim.Time

	// Backhaul latency spikes: windows of spikeLen during which every
	// delivery takes spikeExtra additional one-way latency.
	LatencySpikeMTBF sim.Time

	// CSI blackouts: windows of blackoutLen during which CSI reports are
	// dropped on the backhaul.
	CSIBlackoutMTBF sim.Time

	// ControlLoss drops each stop, start and switch ack on the backhaul
	// with this probability for the whole run — the loss the §3.1.2 30 ms
	// retransmission exists for. It adds no plan events.
	ControlLoss float64

	// Script appends hand-placed events to the generated ones — the
	// reproducible way to stage one exact failure.
	Script []Event
}

// DefaultConfig is the standard chaos mix for resilience runs: roughly one
// AP crash per simulated minute per AP, plus periodic backhaul weather.
func DefaultConfig() Config {
	return Config{
		APCrashMTBF:       60 * sim.Second,
		APDowntime:        2 * sim.Second,
		BackhaulBurstMTBF: 30 * sim.Second,
		LatencySpikeMTBF:  45 * sim.Second,
		CSIBlackoutMTBF:   45 * sim.Second,
	}
}

// Window lengths of the generated backhaul weather (DESIGN.md §11): long
// enough to span several §3.1.2 30 ms control retransmissions, short
// against a cell dwell.
const (
	burstLen    = 200 * sim.Millisecond
	spikeLen    = 500 * sim.Millisecond
	blackoutLen = 300 * sim.Millisecond
)

// What a fault does while it lasts: a burst drops each backhaul message
// with probability burstLoss, a spike adds spikeExtra one-way latency, and
// at most maxAPDown APs are crashed at once.
const (
	burstLoss  = 0.5
	spikeExtra = 5 * sim.Millisecond
	maxAPDown  = 1
)

// Plan is a complete fault timeline, sorted by (At, Kind, AP).
type Plan struct {
	Events []Event
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool { return len(p.Events) == 0 }

// BuildPlan derives the fault timeline for one cell from its scenario RNG.
// Each fault class draws from its own named stream, and per-AP crash
// processes draw from per-AP streams, so the timeline is a pure function of
// (seed, numAPs, horizon) — unaffected by anything else in the simulation,
// and identical however many fleet workers replay it.
func BuildPlan(cfg Config, rng *sim.RNG, numAPs int, horizon sim.Time) Plan {
	var p Plan
	if cfg.APCrashMTBF > 0 && cfg.APDowntime > 0 {
		for id := 0; id < numAPs; id++ {
			rnd := rng.Stream(fmt.Sprintf("chaos/ap/%d", id))
			for t := expDraw(rnd, cfg.APCrashMTBF); t < horizon; t += cfg.APDowntime + expDraw(rnd, cfg.APCrashMTBF) {
				p.Events = append(p.Events,
					Event{At: t, Kind: APCrash, AP: id},
					Event{At: t + cfg.APDowntime, Kind: APRestart, AP: id})
			}
		}
	}
	addWindows := func(stream string, kind EventKind, mtbf, length sim.Time) {
		if mtbf <= 0 {
			return
		}
		rnd := rng.Stream(stream)
		for t := expDraw(rnd, mtbf); t < horizon; t += length + expDraw(rnd, mtbf) {
			p.Events = append(p.Events, Event{At: t, Kind: kind, Dur: length})
		}
	}
	addWindows("chaos/backhaul/burst", BackhaulBurst, cfg.BackhaulBurstMTBF, burstLen)
	addWindows("chaos/backhaul/spike", LatencySpike, cfg.LatencySpikeMTBF, spikeLen)
	addWindows("chaos/csi/blackout", CSIBlackout, cfg.CSIBlackoutMTBF, blackoutLen)
	p.Events = append(p.Events, cfg.Script...)
	sort.SliceStable(p.Events, func(i, j int) bool {
		a, b := p.Events[i], p.Events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.AP < b.AP
	})
	return p
}

// expDraw samples an exponential inter-arrival with the given mean.
func expDraw(rnd *rand.Rand, mean sim.Time) sim.Time {
	return sim.Time(rnd.ExpFloat64() * float64(mean))
}

// Stats counts what the injector actually did (the plan is intent; crashes
// can be skipped by the concurrency guard).
type Stats struct {
	APCrashes      uint64
	APRestarts     uint64
	CrashesSkipped uint64 // suppressed by the maxAPDown / last-AP guard
	Bursts         uint64
	BurstDrops     uint64
	Spikes         uint64
	Blackouts      uint64
	BlackoutDrops  uint64
	CtlCrashes     uint64
	CtlRestarts    uint64
}

// Injector replays a Plan against a live network. Build it with NewInjector
// and wire it with Arm before the run starts.
type Injector struct {
	eng  *sim.Engine
	plan Plan

	aps []APTarget
	ctl ControllerTarget

	// Open fault windows, as absolute deadlines on the sim clock.
	burstUntil    sim.Time
	spikeUntil    sim.Time
	blackoutUntil sim.Time
	// burstRnd decides per-message burst drops; its draws happen only for
	// messages sent inside a burst window, so the stream's consumption is
	// itself deterministic.
	burstRnd *rand.Rand
	// ctlLoss is the ControlLoss drop hook, nil when ControlLoss is 0.
	ctlLoss func(packet.IPv4Addr, packet.Message) bool

	downCount int

	// OnFault observes every applied event (after its effect), letting the
	// evaluation layer correlate faults with delivery gaps.
	OnFault func(Event)

	Stats Stats
}

// NewInjector builds the plan for the given horizon and binds it to the
// network's components. ctl may be nil (baseline networks have none, and
// controller events are then skipped).
func NewInjector(cfg Config, eng *sim.Engine, rng *sim.RNG, aps []APTarget, ctl ControllerTarget, horizon sim.Time) *Injector {
	in := &Injector{
		eng:      eng,
		plan:     BuildPlan(cfg, rng, len(aps), horizon),
		aps:      aps,
		ctl:      ctl,
		burstRnd: rng.Stream("chaos/burst/drop"),
	}
	if cfg.ControlLoss > 0 {
		in.ctlLoss = backhaul.DropTypes(cfg.ControlLoss, rng.Stream("backhaul/controlloss"),
			packet.MsgStop, packet.MsgStart, packet.MsgSwitchAck)
	}
	return in
}

// Arm makes the injector the owner of the switch's Drop and Delay hooks and
// schedules every plan event. Arming a config that injects nothing — an
// empty plan and no ControlLoss — is a no-op, keeping chaos-free runs
// bit-for-bit untouched.
func (in *Injector) Arm(bh *backhaul.Switch) {
	if in.plan.Empty() && in.ctlLoss == nil {
		return
	}
	bh.Drop = in.drop
	bh.Delay = in.delay
	for _, ev := range in.plan.Events {
		ev := ev
		// Arm runs at time 0 in practice; a late Arm still lands each event
		// at its planned absolute time, or at once if that has passed.
		in.eng.At(max(ev.At, in.eng.Now()), func() { in.apply(ev) })
	}
}

// UseMetrics names the injector's counters — Stats fields — in r
// (DESIGN.md §10). A nil registry is a no-op.
func (in *Injector) UseMetrics(r *metrics.Registry) {
	r.CounterAt("chaos", "ap_crashes", &in.Stats.APCrashes)
	r.CounterAt("chaos", "ap_restarts", &in.Stats.APRestarts)
	r.CounterAt("chaos", "burst_drops", &in.Stats.BurstDrops)
	r.CounterAt("chaos", "blackout_drops", &in.Stats.BlackoutDrops)
	r.CounterAt("chaos", "controller_crashes", &in.Stats.CtlCrashes)
}

// drop is the backhaul loss hook: control loss drops stop/start/ack, burst
// windows drop anything, blackout windows drop CSI reports — consulted in
// that order, so a burst draws only for what control loss let through.
func (in *Injector) drop(to packet.IPv4Addr, msg packet.Message) bool {
	if in.ctlLoss != nil && in.ctlLoss(to, msg) {
		return true
	}
	now := in.eng.Now()
	if now < in.burstUntil && in.burstRnd.Float64() < burstLoss {
		in.Stats.BurstDrops++
		return true
	}
	if now < in.blackoutUntil {
		if _, csi := msg.(*packet.CSIReport); csi {
			in.Stats.BlackoutDrops++
			return true
		}
	}
	return false
}

// delay is the backhaul latency hook: spike windows add spikeExtra.
func (in *Injector) delay(packet.IPv4Addr, packet.Message) sim.Time {
	if in.eng.Now() < in.spikeUntil {
		return spikeExtra
	}
	return 0
}

// apply executes one plan event against the live network.
func (in *Injector) apply(ev Event) {
	switch ev.Kind {
	case APCrash:
		if !in.canCrash(ev.AP) {
			in.Stats.CrashesSkipped++
			return
		}
		in.aps[ev.AP].Crash()
		in.downCount++
		in.Stats.APCrashes++
	case APRestart:
		if !in.aps[ev.AP].Down() {
			return // its crash was skipped by the guard
		}
		in.aps[ev.AP].Restart()
		in.downCount--
		in.Stats.APRestarts++
	case BackhaulBurst:
		in.Stats.Bursts++
		in.extend(&in.burstUntil, ev.Dur)
	case LatencySpike:
		in.Stats.Spikes++
		in.extend(&in.spikeUntil, ev.Dur)
	case CSIBlackout:
		in.Stats.Blackouts++
		in.extend(&in.blackoutUntil, ev.Dur)
	case ControllerCrash:
		if in.ctl == nil || in.ctl.Down() {
			return
		}
		in.ctl.Fail()
		in.Stats.CtlCrashes++
	case ControllerRestart:
		if in.ctl == nil || !in.ctl.Down() {
			return
		}
		in.ctl.Recover()
		in.Stats.CtlRestarts++
	}
	if in.OnFault != nil {
		in.OnFault(ev)
	}
}

// canCrash enforces the outage guards: never exceed maxAPDown,
// and never crash the last alive AP (a corridor with zero coverage measures
// nothing useful).
func (in *Injector) canCrash(apID int) bool {
	if in.aps[apID].Down() {
		return false
	}
	if in.downCount >= maxAPDown {
		return false
	}
	alive := 0
	for _, a := range in.aps {
		if !a.Down() {
			alive++
		}
	}
	return alive > 1
}

// extend opens or lengthens a fault window ending at now+d.
func (in *Injector) extend(until *sim.Time, d sim.Time) {
	if end := in.eng.Now() + d; end > *until {
		*until = end
	}
}
