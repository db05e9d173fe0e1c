// Package selector holds the controller's AP-selection policies: the
// paper's windowed-median maximal rule (§3.1.1) plus two extensions —
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
	"strings"

	"wgtt/internal/metrics"
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
	if s == "" {
		return WindowedMedianPolicy, nil
	}
	var names []string
	for _, p := range Policies() {
		if Policy(s) == p {
			return p, nil
		}
		names = append(names, string(p))
	}
	last := len(names) - 1
	return "", fmt.Errorf("unknown selection policy %q (want %s or %s)",
		s, strings.Join(names[:last], ", "), names[last])
}

// Policies lists every selectable policy in documentation order.
func Policies() []Policy {
	return []Policy{WindowedMedianPolicy, PredictivePolicy, GlobalAssignPolicy}
}

// Params carries the base §3.1.1 windowed-median parameters. controller.Config
// embeds them (the Fig. 21/22 experiments sweep Window and the gates) and
// they reach every policy: the extensions refine the median rule rather
// than replace its gates.
type Params struct {
	// Window is the ESNR comparison window W of §3.1.1; the paper's
	// microbenchmark (Fig. 21) selects 10 ms.
	Window sim.Time
	// MedianMarginDB requires the challenger AP's median ESNR to beat the
	// incumbent's by this much (0 reproduces the paper's plain argmax).
	MedianMarginDB float64
	// MinSamples is the minimum number of in-window ESNR readings a
	// challenger needs — one stray reading is not a median. The serving AP
	// is exempt: it defends with whatever it has.
	MinSamples int
	// MinSwitchESNRdB gates handovers: a challenger whose median ESNR is
	// below this cannot be worth a switch (it could not even carry MCS0),
	// which stops the controller from thrashing among dead links when the
	// client leaves coverage entirely.
	MinSwitchESNRdB float64
}

// Config selects a policy. The zero value is the windowed-median rule —
// the configuration every pre-existing scenario implicitly ran. Each
// policy runs one fixed operating point (predictive.go, assign.go).
type Config struct {
	// Policy picks Decide's rule; "" means WindowedMedianPolicy.
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

// Selector is the controller's AP-selection policy. Every policy keeps the
// same evidence — one §3.1.1 median window per (client, AP) link, the
// client registration order (whole-fleet sweeps iterate the slice, never
// the map — map order would break run-to-run determinism), and the
// per-client argmax memory behind the selection-flips metric — so the
// federation layer's Median export and SeedESNR→Observe import behave
// identically under every policy; only Decide's verdict differs. A
// Selector is single-goroutine (the controller's), deterministic, and
// allocation-free on the Observe/Decide hot path once steady state is
// reached.
type Selector struct {
	p       Params
	policy  Policy
	numAPs  int
	clients map[packet.MACAddr]*clientState
	order   []packet.MACAddr

	// GlobalAssignPolicy's round clock and recomputation scratch (reused
	// across rounds; the Observe/Decide hot path between rounds is
	// allocation-free).
	nextAt sim.Time
	pairs  []assignPair
	load   []int
}

// clientState is one client's selection evidence.
type clientState struct {
	windows []*Window // indexed by AP id
	hist    []*Window // trajectory-fit windows (PredictivePolicy only)
	serving int
	// lastBest is the previous decision's preferred AP (-1 before any),
	// the reference point for Decision.Flip.
	lastBest int
	// assigned is GlobalAssignPolicy's current target for this client
	// (-1 before the first round).
	assigned int
}

// New builds the configured policy for a deployment of numAPs APs.
// Unknown policy names are a programming error (ParsePolicy validates
// user input), so New panics rather than guessing.
func New(cfg Config, p Params, numAPs int) *Selector {
	pol, err := ParsePolicy(string(cfg.Policy))
	if err != nil {
		panic("selector: " + err.Error())
	}
	if p.MinSamples < 1 {
		p.MinSamples = 1
	}
	return &Selector{
		p:       p,
		policy:  pol,
		numAPs:  numAPs,
		clients: make(map[packet.MACAddr]*clientState),
	}
}

// AddClient installs per-client state with its initial serving AP, or
// replaces a client's with empty evidence (a controller restart).
func (s *Selector) AddClient(mac packet.MACAddr, serving int) {
	cl := &clientState{windows: s.newWindows(s.p.Window), serving: serving, lastBest: -1, assigned: -1}
	if s.policy == PredictivePolicy {
		cl.hist = s.newWindows(predictHistSpan)
	}
	if _, ok := s.clients[mac]; !ok {
		s.order = append(s.order, mac)
	}
	s.clients[mac] = cl
}

// newWindows returns one empty window of the given span per AP.
func (s *Selector) newWindows(span sim.Time) []*Window {
	ws := make([]*Window, s.numAPs)
	for i := range ws {
		ws[i] = NewWindow(span)
	}
	return ws
}

// RemoveClient drops a client (federation release).
func (s *Selector) RemoveClient(mac packet.MACAddr) {
	if _, ok := s.clients[mac]; !ok {
		return
	}
	delete(s.clients, mac)
	for i, m := range s.order {
		if m == mac {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// SetServing records a completed switch, keeping the policy's view of the
// association current (GlobalAssignPolicy scores incumbents with it).
func (s *Selector) SetServing(mac packet.MACAddr, ap int) {
	if cl := s.clients[mac]; cl != nil {
		cl.serving = ap
	}
}

// Observe ingests one ESNR reading and returns the (client, AP) window
// occupancy after the push — the window_occupancy sample.
func (s *Selector) Observe(mac packet.MACAddr, ap int, esnrDB float64, at sim.Time) int {
	cl := s.clients[mac]
	if cl == nil || ap < 0 || ap >= len(cl.windows) {
		return 0
	}
	cl.windows[ap].Push(at, esnrDB)
	if cl.hist != nil {
		cl.hist[ap].Push(at, esnrDB)
	}
	return cl.windows[ap].Size()
}

// Median exposes the (client, AP) windowed median — the federation tier's
// evidence export and the evaluation hook.
func (s *Selector) Median(mac packet.MACAddr, ap int, now sim.Time) (float64, bool) {
	cl := s.clients[mac]
	if cl == nil || ap < 0 || ap >= len(cl.windows) {
		return 0, false
	}
	return cl.windows[ap].Median(now)
}

// BestAlive picks the best alive AP by median with no sample-count or
// usability gates — the failover tier for stranded clients (DESIGN.md
// §11). Returns -1 when no alive AP holds any evidence.
func (s *Selector) BestAlive(mac packet.MACAddr, now sim.Time, alive func(int) bool) int {
	cl := s.clients[mac]
	if cl == nil {
		return -1
	}
	best, bestMed := -1, 0.0
	for id, w := range cl.windows {
		if !alive(id) {
			continue
		}
		med, ok := w.Median(now)
		if !ok {
			continue
		}
		if best == -1 || med > bestMed {
			best, bestMed = id, med
		}
	}
	return best
}

// Decide evaluates the policy for one client. alive filters APs the
// health monitor has excluded; the controller's own gates (in-flight op,
// frozen, hysteresis) have already passed when Decide runs.
func (s *Selector) Decide(mac packet.MACAddr, serving int, now sim.Time, alive func(int) bool) Decision {
	cl := s.clients[mac]
	if cl == nil {
		return stay()
	}
	switch s.policy {
	case PredictivePolicy:
		return s.predict(cl, serving, now, alive)
	case GlobalAssignPolicy:
		return s.assign(cl, serving, now, alive)
	}
	return s.decideMedian(cl, serving, now, alive)
}

// decideMedian is the paper's §3.1.1 rule — the windowed-median policy's
// whole decision and the predictive policy's base case: maximal windowed
// median over alive APs, with the MinSamples gate exempting the serving
// AP, the MinSwitchESNRdB usability floor, and the incumbent-defense
// margin. A dead incumbent defends nothing, however fresh its window looks.
func (s *Selector) decideMedian(cl *clientState, serving int, now sim.Time, alive func(int) bool) Decision {
	d := stay()
	best, bestMed := -1, 0.0
	for id, w := range cl.windows {
		if !alive(id) {
			continue // dead APs are not selection candidates
		}
		med, ok := w.Median(now)
		if !ok || (id != serving && w.Size() < s.p.MinSamples) {
			continue
		}
		if best == -1 || med > bestMed {
			best, bestMed = id, med
		}
	}
	if best != -1 && best != cl.lastBest {
		// The argmax moved — selection churn, whether or not the gates
		// below let it become a switch.
		d.Flip = true
		cl.lastBest = best
	}
	if best == -1 || best == serving {
		return d
	}
	if bestMed < s.p.MinSwitchESNRdB {
		return d // nobody usable; switching would just churn
	}
	servMed, servOK := cl.windows[serving].Median(now)
	if !alive(serving) {
		servOK = false
	}
	if servOK && bestMed < servMed+s.p.MedianMarginDB {
		return d
	}
	if !servOK {
		servMed = 0
	}
	d.Target = best
	d.Cause = metrics.CauseMedianArgmax
	d.FromMetric = servMed
	d.ToMetric = bestMed
	return d
}
