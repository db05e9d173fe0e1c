package selector

import (
	"sort"

	"wgtt/internal/metrics"
	"wgtt/internal/sim"
)

// GlobalAssignPolicy's one operating point: a fleet-wide round every
// assignPeriod, at most assignBudget clients assigned to an AP per round.
// It is the point of the period × budget × incumbent-bonus grid that met
// the policy's claim on the most calibration seeds (DESIGN.md §15); that
// point gives the serving AP no scoring bonus.
const (
	assignPeriod = 20 * sim.Millisecond
	assignBudget = 1
)

// assignPair is one (client, AP) candidate in a recomputation round.
type assignPair struct {
	ci    int // index into Selector.order
	ap    int
	score float64
}

// assign is GlobalAssignPolicy's verdict, the fleet-wide assignment of
// DESIGN.md §15 (the SDN-style global AP selection of arXiv 2403.18745):
// instead of each client greedily taking its own argmax AP — which piles
// co-located clients onto the same picocell — the policy periodically
// recomputes one AP↔client assignment for the whole fleet, assigning at
// most assignBudget clients to each AP. Between rounds clients follow
// their assigned AP; clients the budget leaves unassigned stay where they
// are. A round is due when assign first runs past the period boundary, and
// this client is then steered toward its assigned AP.
//
// The budget caps a round's assignment, not the load an AP serves: a
// client the budget leaves out stays on its serving AP whoever else is
// there, and a switch completes only after the round that ordered it. The
// claim the policy keeps (eval.TestSelectorClaims) is a lower mean peak AP
// load than the windowed-median rule at equal-or-better goodput.
//
// Determinism: rounds are triggered lazily from Decide (no timers), so the
// recomputation instant is a deterministic function of the CSI arrival
// sequence; candidate scoring iterates clients in registration order and
// ties break by (client order, AP id).
func (s *Selector) assign(cl *clientState, serving int, now sim.Time, alive func(int) bool) Decision {
	d := stay()
	if now >= s.nextAt {
		s.recompute(now, alive)
		s.nextAt = now + assignPeriod
		d.NewRound = true
	}
	tgt := cl.assigned
	if tgt >= 0 && tgt != cl.lastBest {
		d.Flip = true
		cl.lastBest = tgt
	}
	if tgt < 0 || tgt == serving || !alive(tgt) {
		return d
	}
	med, ok := cl.windows[tgt].Median(now)
	if !ok || med < s.p.MinSwitchESNRdB {
		return d // assignment evidence went stale; wait for the next round
	}
	servMed, servOK := cl.windows[serving].Median(now)
	if !alive(serving) {
		servOK = false
	}
	if !servOK {
		servMed = 0
	}
	d.Target = tgt
	d.Cause = metrics.CauseGlobalAssign
	d.FromMetric = servMed
	d.ToMetric = med
	return d
}

// recompute runs one fleet-wide assignment round: score every usable
// (client, AP) pair by median ESNR, sort, and greedily assign under the
// per-AP budget. Clients the budget leaves out keep their serving AP.
func (s *Selector) recompute(now sim.Time, alive func(int) bool) {
	pairs := s.pairs[:0]
	for ci, mac := range s.order {
		cl := s.clients[mac]
		for ap, w := range cl.windows {
			if !alive(ap) {
				continue
			}
			med, ok := w.Median(now)
			if !ok || (ap != cl.serving && w.Size() < s.p.MinSamples) {
				continue
			}
			if ap != cl.serving && med < s.p.MinSwitchESNRdB {
				continue
			}
			pairs = append(pairs, assignPair{ci: ci, ap: ap, score: med})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].score != pairs[j].score {
			return pairs[i].score > pairs[j].score
		}
		if pairs[i].ci != pairs[j].ci {
			return pairs[i].ci < pairs[j].ci
		}
		return pairs[i].ap < pairs[j].ap
	})
	s.pairs = pairs

	if cap(s.load) < s.numAPs {
		s.load = make([]int, s.numAPs)
	}
	load := s.load[:s.numAPs]
	for i := range load {
		load[i] = 0
	}
	for _, mac := range s.order {
		s.clients[mac].assigned = -1
	}
	assigned := 0
	for _, pr := range pairs {
		if assigned == len(s.order) {
			break
		}
		cl := s.clients[s.order[pr.ci]]
		if cl.assigned != -1 || load[pr.ap] >= assignBudget {
			continue
		}
		cl.assigned = pr.ap
		load[pr.ap]++
		assigned++
	}
	// Unassigned clients (every usable AP at budget) stay put.
	for _, mac := range s.order {
		if cl := s.clients[mac]; cl.assigned == -1 {
			cl.assigned = cl.serving
		}
	}
}
