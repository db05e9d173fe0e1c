package selector

import (
	"wgtt/internal/metrics"
	"wgtt/internal/packet"
	"wgtt/internal/sim"
)

// base is the state every policy shares: one §3.1.1 median window per
// (client, AP) link, the client registration order (whole-fleet sweeps
// iterate the slice, never the map — map order would break run-to-run
// determinism), and the per-client argmax memory behind the
// selection-flips metric. Because the evidence store is common, the
// federation layer's Median export and SeedESNR→Observe import behave
// identically under every policy.
type base struct {
	p       Params
	numAPs  int
	clients map[packet.MACAddr]*clientState
	order   []packet.MACAddr

	// histSpan > 0 additionally maintains a longer fitting window per
	// link (the Predictive policy's trajectory history).
	histSpan sim.Time
}

// clientState is one client's selection evidence.
type clientState struct {
	windows []*Window // indexed by AP id
	hist    []*Window // trajectory-fit windows (nil unless histSpan > 0)
	serving int
	// lastBest is the previous decision's preferred AP (-1 before any),
	// the reference point for Decision.Flip.
	lastBest int
	// assigned is GlobalAssign's current target for this client
	// (-1 before the first round).
	assigned int
}

func newBase(p Params, numAPs int) base {
	return base{
		p:       p,
		numAPs:  numAPs,
		clients: make(map[packet.MACAddr]*clientState),
	}
}

func (b *base) AddClient(mac packet.MACAddr, serving int) {
	cl := &clientState{
		windows:  make([]*Window, b.numAPs),
		serving:  serving,
		lastBest: -1,
		assigned: -1,
	}
	for i := range cl.windows {
		cl.windows[i] = NewWindow(b.p.Window)
	}
	if b.histSpan > 0 {
		cl.hist = make([]*Window, b.numAPs)
		for i := range cl.hist {
			cl.hist[i] = NewWindow(b.histSpan)
		}
	}
	if _, ok := b.clients[mac]; !ok {
		b.order = append(b.order, mac)
	}
	b.clients[mac] = cl
}

func (b *base) RemoveClient(mac packet.MACAddr) {
	if _, ok := b.clients[mac]; !ok {
		return
	}
	delete(b.clients, mac)
	for i, m := range b.order {
		if m == mac {
			b.order = append(b.order[:i], b.order[i+1:]...)
			break
		}
	}
}

func (b *base) SetServing(mac packet.MACAddr, ap int) {
	if cl := b.clients[mac]; cl != nil {
		cl.serving = ap
	}
}

func (b *base) ResetClient(mac packet.MACAddr) {
	cl := b.clients[mac]
	if cl == nil {
		return
	}
	for i := range cl.windows {
		cl.windows[i] = NewWindow(b.p.Window)
	}
	for i := range cl.hist {
		cl.hist[i] = NewWindow(b.histSpan)
	}
	cl.lastBest = -1
	cl.assigned = -1
}

func (b *base) Observe(mac packet.MACAddr, ap int, esnrDB float64, at sim.Time) int {
	cl := b.clients[mac]
	if cl == nil || ap < 0 || ap >= len(cl.windows) {
		return 0
	}
	cl.windows[ap].Push(at, esnrDB)
	if cl.hist != nil {
		cl.hist[ap].Push(at, esnrDB)
	}
	return cl.windows[ap].Size()
}

func (b *base) Median(mac packet.MACAddr, ap int, now sim.Time) (float64, bool) {
	cl := b.clients[mac]
	if cl == nil || ap < 0 || ap >= len(cl.windows) {
		return 0, false
	}
	return cl.windows[ap].Median(now)
}

func (b *base) BestAlive(mac packet.MACAddr, now sim.Time, alive func(int) bool) int {
	cl := b.clients[mac]
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

// decideMedian is the §3.1.1 rule shared by WindowedMedian (its whole
// decision) and Predictive (its base case): maximal windowed median over
// alive APs, with the MinSamples gate exempting the serving AP, the
// MinSwitchESNRdB usability floor, and the incumbent-defense margin. A
// dead incumbent defends nothing, however fresh its window looks.
func (b *base) decideMedian(cl *clientState, serving int, now sim.Time, alive func(int) bool) Decision {
	d := stay()
	best, bestMed := -1, 0.0
	for id, w := range cl.windows {
		if !alive(id) {
			continue // dead APs are not selection candidates
		}
		med, ok := w.Median(now)
		if !ok || (id != serving && w.Size() < b.p.MinSamples) {
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
	if bestMed < b.p.MinSwitchESNRdB {
		return d // nobody usable; switching would just churn
	}
	servMed, servOK := cl.windows[serving].Median(now)
	if !alive(serving) {
		servOK = false
	}
	if servOK && bestMed < servMed+b.p.MedianMarginDB {
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
