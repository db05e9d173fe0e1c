// Package selector holds the controller's AP-selection rule, the paper's
// windowed-median argmax (§3.1.1): the AP whose median ESNR over the last
// Window is highest, gated by a sample count, a usability floor and an
// incumbent-defense margin (DESIGN.md §15).
//
// The controller owns *when* a client is evaluated — the one-outstanding-
// switch, frozen-during-handoff, and hysteresis gates all stay in
// internal/controller — and the Selector owns *what the evidence says*: it
// ingests every ESNR observation via Observe and answers Decide with a
// target AP. The per-(client, AP) median windows are also the federation
// layer's evidence export (Median) and import (SeedESNR → Observe).
//
// Determinism contract: a Selector is called from the single controller
// goroutine and never reads wall-clock time or randomness.
package selector

import (
	"wgtt/internal/packet"
	"wgtt/internal/sim"
)

// Params carries the §3.1.1 windowed-median parameters. controller.Config
// embeds them (the Fig. 21/22 experiments sweep Window and the gates).
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

// Config is empty. It remains only because the benchmark program passes
// it to New; the next benchmark change drops that argument and deletes it.
type Config struct{}

// Decision is one selection verdict for one client.
type Decision struct {
	// Target is the AP to switch to, or -1 to stay on the serving AP.
	Target int
	// FromMetric/ToMetric are the incumbent and target medians the
	// decision compared, recorded on the span.
	FromMetric, ToMetric float64
	// Flip reports that the preferred AP changed since the previous
	// decision for this client (the selection_flips metric).
	Flip bool
}

// Selector is the controller's AP-selection rule. It keeps one §3.1.1
// median window per (client, AP) link and the per-client argmax memory
// behind the selection-flips metric. A Selector is single-goroutine (the
// controller's), deterministic, and allocation-free on the Observe/Decide
// hot path once steady state is reached.
type Selector struct {
	p       Params
	numAPs  int
	clients map[packet.MACAddr]*clientState
}

// clientState is one client's selection evidence.
type clientState struct {
	windows []*Window // indexed by AP id
	// lastBest is the previous decision's preferred AP (-1 before any),
	// the reference point for Decision.Flip.
	lastBest int
}

// New builds the selection rule for a deployment of numAPs APs.
func New(_ Config, p Params, numAPs int) *Selector {
	if p.MinSamples < 1 {
		p.MinSamples = 1
	}
	return &Selector{
		p:       p,
		numAPs:  numAPs,
		clients: make(map[packet.MACAddr]*clientState),
	}
}

// AddClient installs per-client state with empty evidence, or replaces a
// client's (a controller restart). The serving AP is read by nothing; the
// argument remains only because the benchmark program passes it.
func (s *Selector) AddClient(mac packet.MACAddr, _ int) {
	cl := &clientState{windows: make([]*Window, s.numAPs), lastBest: -1}
	for i := range cl.windows {
		cl.windows[i] = NewWindow(s.p.Window)
	}
	s.clients[mac] = cl
}

// RemoveClient drops a client (federation release).
func (s *Selector) RemoveClient(mac packet.MACAddr) {
	delete(s.clients, mac)
}

// Observe ingests one ESNR reading and returns the (client, AP) window
// occupancy after the push — the window_occupancy sample.
func (s *Selector) Observe(mac packet.MACAddr, ap int, esnrDB float64, at sim.Time) int {
	cl := s.clients[mac]
	if cl == nil || ap < 0 || ap >= len(cl.windows) {
		return 0
	}
	cl.windows[ap].Push(at, esnrDB)
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

// Decide evaluates the §3.1.1 rule for one client: maximal windowed median
// over alive APs, with the MinSamples gate exempting the serving AP, the
// MinSwitchESNRdB usability floor, and the incumbent-defense margin. A dead
// incumbent defends nothing, however fresh its window looks. alive filters
// APs the health monitor has excluded; the controller's own gates (in-flight
// op, frozen, hysteresis) have already passed when Decide runs.
func (s *Selector) Decide(mac packet.MACAddr, serving int, now sim.Time, alive func(int) bool) Decision {
	d := Decision{Target: -1}
	cl := s.clients[mac]
	if cl == nil {
		return d
	}
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
	d.FromMetric = servMed
	d.ToMetric = bestMed
	return d
}
