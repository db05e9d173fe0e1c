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
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"

	"wgtt/internal/backhaul"
	"wgtt/internal/metrics"
	"wgtt/internal/packet"
	"wgtt/internal/sim"
)

// Target is the crash surface of one AP (*ap.AP) or one controller domain
// (*federation.Domain): a crash takes it off the air and the backhaul, a
// restart brings it back with cold soft state.
type Target interface {
	Crash()
	Restart()
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
	// ControllerCrash takes one domain's controller down (Domain.Crash).
	ControllerCrash
	// ControllerRestart brings it back with cold soft state (Domain.Restart).
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
	// Target is the AP id of an AP event, the domain id of a controller
	// event (ignored otherwise).
	Target int
	// Dur is the window length for burst/spike/blackout events.
	Dur sim.Time
}

// Config parameterizes fault generation. Every MTBF is the mean of an
// exponential inter-arrival distribution; 0 disables that fault class, and
// the zero Config generates nothing (Script-only plans are how single
// targeted faults are injected).
type Config struct {
	// APCrashMTBF is the per-AP mean time between crashes; each crashed AP
	// comes back after APDowntime with cold queues. Set, it also turns on
	// the controller crashes of a federated network (controllerMTBF).
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
// AP crash per simulated minute per AP, as many controller crashes per
// domain of a federated network, plus periodic backhaul weather.
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

// The controller crash process of each domain of a federated network,
// drawn whenever AP crashes are (Config.APCrashMTBF > 0): a crash per
// controllerMTBF on average, each down for controllerDowntime. A restarted
// controller numbers each client's downlink from index 0 again, and an AP
// resynchronises a client's ring to that only once it has sat idle for
// ap.staleRingAfter (1 s), so the downtime must not be shorter;
// internal/core's TestChaosControllerRestartResumesDelivery checks the
// restarted stream's first delivery is index 0.
const (
	controllerMTBF     = 60 * sim.Second
	controllerDowntime = 2 * sim.Second
)

// What a fault does while it lasts: a burst drops each backhaul message
// with probability burstLoss, a spike adds spikeExtra one-way latency.
const (
	burstLoss  = 0.5
	spikeExtra = 5 * sim.Millisecond
)

// Plan is a complete fault timeline, sorted by (At, Kind, Target).
type Plan struct {
	Events []Event
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool { return len(p.Events) == 0 }

// BuildPlan derives the fault timeline for one cell of numAPs APs and
// numDomains controller domains from its scenario RNG. Each fault class
// draws from its own named stream, and each AP's and each domain's crash
// process from its own ("chaos/ap/3", "chaos/controller/1"), so the
// timeline is a pure function of (seed, numAPs, numDomains, horizon) —
// unaffected by anything else in the simulation, and identical however many
// fleet workers replay it.
func BuildPlan(cfg Config, rng *sim.RNG, numAPs, numDomains int, horizon sim.Time) Plan {
	var p Plan
	crashes := func(class string, n int, crash, restart EventKind, mtbf, downtime sim.Time) {
		if mtbf <= 0 || downtime <= 0 {
			return
		}
		for id := 0; id < n; id++ {
			rnd := rng.Stream(fmt.Sprintf("chaos/%s/%d", class, id))
			for t := expDraw(rnd, mtbf); t < horizon; t += downtime + expDraw(rnd, mtbf) {
				p.Events = append(p.Events,
					Event{At: t, Kind: crash, Target: id},
					Event{At: t + downtime, Kind: restart, Target: id})
			}
		}
	}
	crashes("ap", numAPs, APCrash, APRestart, cfg.APCrashMTBF, cfg.APDowntime)
	if numDomains > 1 && cfg.APCrashMTBF > 0 {
		// The guard never crashes the last live target, so a lone
		// controller's process would be skipped whole: it is not drawn.
		crashes("controller", numDomains, ControllerCrash, ControllerRestart, controllerMTBF, controllerDowntime)
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
		return a.Target < b.Target
	})
	return p
}

// expDraw samples an exponential inter-arrival with the given mean.
func expDraw(rnd *rand.Rand, mean sim.Time) sim.Time {
	return sim.Time(rnd.ExpFloat64() * float64(mean))
}

// Stats counts what the injector actually did (the plan is intent; crashes
// can be skipped by the guard). Every crash event is applied or skipped, so
// the plan's AP crash events due so far number APCrashes + CrashesSkipped,
// its controller crash events CtlCrashes + CtlSkipped; every message the
// armed switch drops is one of BurstDrops, BlackoutDrops and ControlDrops.
// A restart applies only to a target its crash took down, and nothing else
// crashes or restarts one, so APCrashes = APRestarts + the APs down now and
// CtlCrashes = CtlRestarts + the controllers down now (Conserved checks all
// five).
type Stats struct {
	APCrashes      uint64 `metric:"ap_crashes"`
	APRestarts     uint64 `metric:"ap_restarts"`
	CrashesSkipped uint64 // AP crashes suppressed by the guard (Injector.crash)
	BurstDrops     uint64 `metric:"burst_drops"`
	BlackoutDrops  uint64 `metric:"blackout_drops"`
	ControlDrops   uint64 // stops, starts and acks lost to ControlLoss
	CtlCrashes     uint64 `metric:"controller_crashes"`
	CtlRestarts    uint64
	CtlSkipped     uint64 // controller crashes suppressed by the guard
}

// Conserved checks that every crash event of each kind due by now was
// applied or skipped by the guard, that every applied crash was restarted or
// is still down, and that the armed switch dropped exactly the messages the
// drop classes count (dropped, its count). A nil injector drops nothing.
func (in *Injector) Conserved(dropped uint64) error {
	if in == nil {
		return metrics.Conserved("backhaul", "drops = none without chaos", dropped, 0)
	}
	var apDue, ctlDue uint64
	for _, ev := range in.plan.Events {
		if ev.At > in.eng.Now() {
			continue
		}
		switch ev.Kind {
		case APCrash:
			apDue++
		case ControllerCrash:
			ctlDue++
		}
	}
	st := &in.Stats
	return errors.Join(
		metrics.Conserved("chaos", "AP crashes: due = applied + skipped", apDue, st.APCrashes+st.CrashesSkipped),
		metrics.Conserved("chaos", "controller crashes: due = applied + skipped", ctlDue, st.CtlCrashes+st.CtlSkipped),
		metrics.Conserved("chaos", "AP crashes: applied = restarted + down", st.APCrashes, st.APRestarts+downs(in.aps)),
		metrics.Conserved("chaos", "controller crashes: applied = restarted + down", st.CtlCrashes, st.CtlRestarts+downs(in.ctls)),
		metrics.Conserved("chaos", "drops: switch = burst + blackout + control loss",
			dropped, st.BurstDrops+st.BlackoutDrops+st.ControlDrops))
}

// Injector replays a Plan against a live network. Build it with NewInjector
// and wire it with Arm before the run starts.
type Injector struct {
	eng  *sim.Engine
	plan Plan

	aps, ctls []Target

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

	// OnFault observes every applied event (after its effect), letting the
	// evaluation layer correlate faults with delivery gaps.
	OnFault func(Event)

	Stats Stats
}

// NewInjector builds the plan for the given horizon and binds it to the
// network's APs and controller domains, each indexed by its id.
func NewInjector(cfg Config, eng *sim.Engine, rng *sim.RNG, aps, ctls []Target, horizon sim.Time) *Injector {
	in := &Injector{
		eng:      eng,
		plan:     BuildPlan(cfg, rng, len(aps), len(ctls), horizon),
		aps:      aps,
		ctls:     ctls,
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

// UseMetrics names the injector's counters — tagged Stats fields — in r
// (DESIGN.md §10). A nil registry is a no-op.
func (in *Injector) UseMetrics(r *metrics.Registry) {
	r.Counters("chaos", &in.Stats)
}

// drop is the backhaul loss hook: control loss drops stop/start/ack, burst
// windows drop anything, blackout windows drop CSI reports — consulted in
// that order, so a burst draws only for what control loss let through.
func (in *Injector) drop(to packet.IPv4Addr, msg packet.Message) bool {
	if in.ctlLoss != nil && in.ctlLoss(to, msg) {
		in.Stats.ControlDrops++
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
	applied := true
	switch ev.Kind {
	case APCrash:
		applied = crash(in.aps, ev.Target, &in.Stats.APCrashes, &in.Stats.CrashesSkipped)
	case APRestart:
		applied = restart(in.aps, ev.Target, &in.Stats.APRestarts)
	case ControllerCrash:
		applied = crash(in.ctls, ev.Target, &in.Stats.CtlCrashes, &in.Stats.CtlSkipped)
	case ControllerRestart:
		applied = restart(in.ctls, ev.Target, &in.Stats.CtlRestarts)
	case BackhaulBurst:
		in.extend(&in.burstUntil, ev.Dur)
	case LatencySpike:
		in.extend(&in.spikeUntil, ev.Dur)
	case CSIBlackout:
		in.extend(&in.blackoutUntil, ev.Dur)
	}
	if applied && in.OnFault != nil {
		in.OnFault(ev)
	}
}

// crash takes ts[id] down and counts it in n, unless the guard holds: at
// most one target of a list down at a time, and never the last live one (a
// corridor with no coverage, or no controller, measures nothing useful).
// A guarded crash counts in skipped.
func crash(ts []Target, id int, n, skipped *uint64) bool {
	ok := id >= 0 && id < len(ts) && len(ts) > 1
	for _, t := range ts {
		ok = ok && !t.Down()
	}
	if !ok {
		*skipped++
		return false
	}
	ts[id].Crash()
	*n++
	return true
}

// restart brings ts[id] back and counts it in n, if its crash took it down.
func restart(ts []Target, id int, n *uint64) bool {
	if id < 0 || id >= len(ts) || !ts[id].Down() {
		return false // its crash was skipped by the guard
	}
	ts[id].Restart()
	*n++
	return true
}

// downs counts the targets of ts that are down.
func downs(ts []Target) uint64 {
	n := uint64(0)
	for _, t := range ts {
		if t.Down() {
			n++
		}
	}
	return n
}

// extend opens or lengthens a fault window ending at now+d.
func (in *Injector) extend(until *sim.Time, d sim.Time) {
	if end := in.eng.Now() + d; end > *until {
		*until = end
	}
}
