// Package selector holds the controller's pluggable AP-selection policies:
// the paper's windowed-median maximal rule (§3.1.1) plus two extensions —
// predictive handover, which fits per-AP ESNR trajectories and fires the
// §3.1.2 stop→start→ack switch ahead of signal collapse, and global
// assignment, which replaces greedy per-client argmax with a periodic
// fleet-wide AP↔client assignment under per-AP budgets.
//
// The controller owns *when* a client is evaluated — the one-outstanding-
// switch, frozen-during-handoff, and hysteresis gates all stay in
// internal/controller — and the Selector owns *what the evidence says*: it
// ingests every ESNR observation via Observe and answers Decide with a
// target AP and the cause to record on the switch span. All policies keep
// the same per-(client, AP) median windows, so the federation layer's
// evidence export (MedianESNR) and import (SeedESNR → Observe) work
// identically whichever policy a domain runs (DESIGN.md §15).
//
// Determinism contract: selectors are called from the single
// controller goroutine, never read wall-clock time or randomness, and
// iterate clients in registration order — the fleet's byte-identical-
// reports-for-any-worker-count property does not depend on the policy
// chosen.
package selector

import (
	"fmt"

	"wgtt/internal/packet"
	"wgtt/internal/sim"
)

// Policy names an AP-selection policy.
type Policy string

// The three policies (DESIGN.md §15).
const (
	// WindowedMedianPolicy is the paper's §3.1.1 rule: argmax over
	// per-AP windowed median ESNR, with margin and sample-count gates.
	WindowedMedianPolicy Policy = "windowed-median"
	// PredictivePolicy extends the median rule with a linear trajectory
	// fit per AP; it switches early when the serving AP's ESNR is
	// falling and a challenger is predicted to be better at the horizon.
	PredictivePolicy Policy = "predictive"
	// GlobalAssignPolicy recomputes a fleet-wide AP↔client assignment
	// every assignPeriod under a per-AP client budget, trading a little
	// per-client ESNR for bounded per-AP load.
	GlobalAssignPolicy Policy = "global-assign"
)

// ParsePolicy maps a CLI flag value to a Policy; "" selects the default
// windowed-median rule.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case "", WindowedMedianPolicy:
		return WindowedMedianPolicy, nil
	case PredictivePolicy:
		return PredictivePolicy, nil
	case GlobalAssignPolicy:
		return GlobalAssignPolicy, nil
	}
	return "", fmt.Errorf("unknown selection policy %q (want %s, %s or %s)",
		s, WindowedMedianPolicy, PredictivePolicy, GlobalAssignPolicy)
}

// Policies lists every selectable policy in documentation order.
func Policies() []Policy {
	return []Policy{WindowedMedianPolicy, PredictivePolicy, GlobalAssignPolicy}
}

// Params carries the base §3.1.1 windowed-median parameters. They live in
// controller.Config (Window, MedianMarginDB, MinSamples, MinSwitchESNRdB
// are swept by the Fig. 21/22 experiments) and are handed to every policy:
// the extensions refine the median rule rather than replace its gates.
type Params struct {
	// Window is the ESNR comparison window W of §3.1.1.
	Window sim.Time
	// MedianMarginDB is the challenger-beats-incumbent margin.
	MedianMarginDB float64
	// MinSamples gates challengers on in-window evidence (the serving AP
	// is exempt — it defends with whatever it has).
	MinSamples int
	// MinSwitchESNRdB is the usability floor below which no switch is
	// worth making.
	MinSwitchESNRdB float64
}

// Config selects a policy. The zero value is the windowed-median rule —
// the configuration every pre-existing scenario implicitly ran. Each
// policy runs one fixed operating point (predictive.go, assign.go).
type Config struct {
	// Policy picks the implementation; "" means WindowedMedianPolicy.
	Policy Policy
}

// Decision is one policy verdict for one client.
type Decision struct {
	// Target is the AP to switch to, or -1 to stay on the serving AP.
	Target int
	// Cause labels the switch span (metrics.CauseMedianArgmax,
	// CausePredictedCollapse, or CauseGlobalAssign).
	Cause string
	// FromMetric/ToMetric are the incumbent and target figures the
	// decision compared (medians, or predicted ESNRs for an early
	// switch), recorded on the span.
	FromMetric, ToMetric float64
	// Flip reports that the policy's preferred AP changed since the
	// previous decision for this client (the selection_flips metric).
	Flip bool
	// Early marks a predictive switch fired before the median rule would
	// have moved (the predictive_early_switches metric).
	Early bool
	// NewRound marks the decision that triggered a fleet-wide
	// reassignment (the assignment_rounds metric).
	NewRound bool
}

// stay is the no-switch decision.
func stay() Decision { return Decision{Target: -1} }

// Selector is a pluggable AP-selection policy. Implementations are
// single-goroutine (the controller's), deterministic, and allocation-free
// on the Observe/Decide hot path once steady state is reached.
type Selector interface {
	// AddClient installs per-client state with its initial serving AP.
	AddClient(mac packet.MACAddr, serving int)
	// RemoveClient drops a client (federation release).
	RemoveClient(mac packet.MACAddr)
	// SetServing records a completed switch, keeping the policy's view of
	// the association current (GlobalAssign scores incumbents with it).
	SetServing(mac packet.MACAddr, ap int)
	// ResetClient clears a client's ESNR evidence in place (controller
	// restart: the windows are soft state).
	ResetClient(mac packet.MACAddr)
	// Observe ingests one ESNR reading and returns the (client, AP)
	// window occupancy after the push — the window_occupancy sample.
	Observe(mac packet.MACAddr, ap int, esnrDB float64, at sim.Time) int
	// Decide evaluates the policy for one client. alive filters APs the
	// health monitor has excluded; the controller's own gates (in-flight
	// op, frozen, hysteresis) have already passed when Decide runs.
	Decide(mac packet.MACAddr, serving int, now sim.Time, alive func(int) bool) Decision
	// Median exposes the (client, AP) windowed median — the federation
	// tier's evidence export and the evaluation hook.
	Median(mac packet.MACAddr, ap int, now sim.Time) (float64, bool)
	// BestAlive picks the best alive AP by median with no sample-count or
	// usability gates — the failover tier for stranded clients
	// (DESIGN.md §11). Returns -1 when no alive AP holds any evidence.
	BestAlive(mac packet.MACAddr, now sim.Time, alive func(int) bool) int
}

// New builds the configured policy for a deployment of numAPs APs.
// Unknown policy names are a programming error (ParsePolicy validates
// user input), so New panics rather than guessing.
func New(cfg Config, p Params, numAPs int) Selector {
	if p.MinSamples < 1 {
		p.MinSamples = 1
	}
	switch cfg.Policy {
	case "", WindowedMedianPolicy:
		return &WindowedMedian{base: newBase(p, numAPs)}
	case PredictivePolicy:
		b := newBase(p, numAPs)
		b.histSpan = predictHistSpan
		return &Predictive{base: b}
	case GlobalAssignPolicy:
		return &GlobalAssign{base: newBase(p, numAPs)}
	}
	panic(fmt.Sprintf("selector: unknown policy %q", cfg.Policy))
}
