package federation

import (
	"math"

	"wgtt/internal/controller"
	"wgtt/internal/csi"
	"wgtt/internal/metrics"
	"wgtt/internal/packet"
	"wgtt/internal/selector"
	"wgtt/internal/sim"
)

// This file is the inter-controller handoff protocol (DESIGN.md §13). Three
// messages move a client between domains:
//
//	owner A                         adopter B
//	  | ── DomainHandoffOffer ──────→ |   A's evidence says B's AP is best
//	  | ←── DomainHandoffAccept ───── |   B pre-stages the adoption
//	  | ── DomainHandoffCommit ──────→|   state bundle; A has released
//	  |                               |   B adopts, its controller pulls (§3.1.2)
//	  | ←── slim Commit (announce) ── |   echo to A + directory update to all
//
// The commit is self-contained and authoritative: once A sends it, A has
// released the client, so B applies any commit naming one of its APs even
// if its accept state is gone. A retransmits the commit until B's
// announcement echoes back; B deduplicates by handoff id.

// ingestForeign folds one foreign-AP CSI report into the client's evidence
// windows and re-evaluates the cross-domain handoff rule.
func (d *Domain) ingestForeign(fc *fedClient, m *packet.CSIReport) {
	w := fc.foreign[m.AP]
	if w == nil {
		if fc.foreign == nil {
			fc.foreign = make(map[packet.IPv4Addr]*selector.Window)
		}
		w = selector.NewWindow(d.cfg.Controller.Window)
		fc.foreign[m.AP] = w
		fc.foreignOrder = append(fc.foreignOrder, m.AP)
	}
	d.csiScratch = m.SNRdBInto(d.csiScratch)
	now := d.eng.Now()
	w.Push(now, csi.ESNRdB(d.csiScratch, csi.DefaultESNRModulation))
	d.maybeOffer(fc, now)
}

// maybeOffer runs the cross-domain counterpart of §3.1.1: offer the client
// away when the best foreign windowed median beats the best local one by
// MarginDB. Deliberately conservative — an offer is deferred while the
// inner controller has a switch in flight (stop sent, start pending), while
// a handoff is already outstanding, and inside the hysteresis dwell.
func (d *Domain) maybeOffer(fc *fedClient, now sim.Time) {
	if fc.out != nil || d.byClient[fc.mac] != nil {
		return
	}
	if d.ctl.InFlightSwitch(fc.mac) {
		return // let the intra-domain stop→start→ack finish first
	}
	if now-fc.lastHandoff < d.cfg.Hysteresis {
		return
	}
	var bestAP packet.IPv4Addr
	bestMed := math.Inf(-1)
	for _, apIP := range fc.foreignOrder {
		w := fc.foreign[apIP]
		if med, _ := w.Median(now); w.Size() >= d.cfg.Controller.MinSamples && med > bestMed {
			bestMed, bestAP = med, apIP
		}
	}
	if bestAP.IsZero() || bestMed < d.cfg.Controller.MinSwitchESNRdB {
		return
	}
	serving := d.ctl.ServingAP(fc.mac)
	if serving < 0 {
		return
	}
	bestLocal, haveLocal := d.ctl.BestMedianESNR(fc.mac)
	if haveLocal && bestMed < bestLocal+d.cfg.MarginDB {
		return
	}
	d.handoffSeq++
	id := d.handoffSeq
	target := d.apAt[bestAP]
	fc.out = &outHandoff{id: id, peer: target.Domain, target: bestAP, offeredAt: now}
	d.ctl.SetFrozen(fc.mac, true)
	d.Stats.OffersSent++
	d.met.handoffSpans.Begin(id, int64(now), fc.mac.String(),
		serving, target.ID, metrics.CauseDomainHandoff, bestLocal, bestMed)
	_ = d.bh.Send(d.addr, d.addrOf(target.Domain), &packet.DomainHandoffOffer{
		HandoffID: id, Client: fc.mac, ClientIP: fc.ip,
		ServingAP: d.city[serving].IP, TargetAP: bestAP, EvidenceQ: packet.QuantizeDB(bestMed),
	})
	fc.out.timer = d.eng.After(offerTimeout, func() { d.offerTimeout(fc, id) })
}

// offerTimeout abandons an unanswered offer: the client stays owned, thaws,
// and the hysteresis clock restarts so a dead peer is not hammered.
func (d *Domain) offerTimeout(fc *fedClient, id uint32) {
	if d.ctl.Down() || fc.out == nil || fc.out.id != id || d.owned[fc.mac] != fc {
		return
	}
	fc.out = nil
	fc.lastHandoff = d.eng.Now()
	d.ctl.SetFrozen(fc.mac, false)
	d.Stats.Aborts++
}

// handleOffer is the adopter's half of the offer: validate that the target
// AP is ours and the client state is clean, pre-stage the adoption (so
// serving-AP queries and early downlink already resolve), and accept.
func (d *Domain) handleOffer(from packet.IPv4Addr, m *packet.DomainHandoffOffer) {
	d.Stats.OffersRecv++
	reply := func(accept bool) {
		if !accept {
			d.Stats.OffersRejected++
		}
		_ = d.bh.Send(d.addr, from, &packet.DomainHandoffAccept{
			HandoffID: m.HandoffID, Client: m.Client, Accept: accept,
		})
	}
	if a, ok := d.apAt[m.TargetAP]; !ok || a.Domain != d.id || d.Owns(m.Client) || d.adoptedIDs[m.HandoffID] {
		reply(false)
		return
	}
	if _, ok := d.peerAt(from); !ok {
		reply(false)
		return
	}
	if prev := d.byClient[m.Client]; prev != nil {
		// Duplicate of the adoption already staged → re-accept idempotently;
		// a competing handoff for the same client → decline.
		if prev.id == m.HandoffID {
			d.Stats.OffersReaccepted++
		}
		reply(prev.id == m.HandoffID)
		return
	}
	ad := &adoption{id: m.HandoffID, client: m.Client, oldAP: m.ServingAP}
	d.byClient[ad.client] = ad
	ad.timer = d.eng.After(acceptHold, func() { d.acceptTimeout(ad) })
	reply(true)
}

// acceptTimeout drops a pre-staged adoption whose commit never arrived.
func (d *Domain) acceptTimeout(ad *adoption) {
	if d.ctl.Down() || d.byClient[ad.client] != ad {
		return
	}
	delete(d.byClient, ad.client)
	d.Stats.DownDiscarded += uint64(len(d.pendingDown[ad.client]))
	delete(d.pendingDown, ad.client)
	d.Stats.Aborts++
}

// handleAccept is the owner's half of the accept: on rejection, thaw and
// back off; on acceptance, export the state bundle and release ownership.
func (d *Domain) handleAccept(m *packet.DomainHandoffAccept) {
	fc := d.owned[m.Client]
	if fc == nil || fc.out == nil || fc.out.id != m.HandoffID {
		return
	}
	out := fc.out
	out.timer.Stop()
	fc.out = nil
	now := d.eng.Now()
	fc.lastHandoff = now
	if !m.Accept {
		d.ctl.SetFrozen(m.Client, false)
		d.Stats.Aborts++
		return
	}
	// The state bundle: downlink index cursor, dedup window, association,
	// and the per-target-domain ESNR evidence (so the adopter's windows
	// start warm instead of blind).
	var ev []packet.APESNR
	for _, apIP := range fc.foreignOrder {
		if d.apAt[apIP].Domain != out.peer {
			continue
		}
		w := fc.foreign[apIP]
		if med, _ := w.Median(now); w.Size() >= d.cfg.Controller.MinSamples {
			ev = append(ev, packet.APESNR{AP: apIP, MedianQ: packet.QuantizeDB(med)})
			if len(ev) == packet.MaxHandoffEvidence {
				break
			}
		}
	}
	commit := &packet.DomainHandoffCommit{
		HandoffID: out.id, Client: m.Client, ClientIP: fc.ip, TargetAP: out.target, Evidence: ev,
	}
	d.release(commit)
	_ = d.bh.Send(d.addr, d.addrOf(out.peer), commit)
	d.owner[m.Client] = out.peer
	d.Stats.Commits++
	d.met.handoffSpans.End(out.id, int64(now), false)
	d.Offered = append(d.Offered, now-out.offeredAt)
	rel := &release{id: out.id, peer: out.peer, commit: commit}
	d.released[rel.id] = rel
	rel.timer = d.eng.After(commitTimeout, func() { d.retryCommit(rel) })
	if d.OnRelease != nil {
		d.OnRelease(m.Client, out.peer)
	}
}

// retryCommit retransmits an unacknowledged commit. The client is already
// released — the commit MUST land, so it is the one federation message with
// its own reliability loop (the offer may die silently; a commit may not),
// and the loop has no budget: giving up would leave the client owned by
// nobody, each domain's directory naming the other. Adoption is idempotent
// by handoff id, and only the adopter's echo or Crash ends it.
func (d *Domain) retryCommit(rel *release) {
	if d.ctl.Down() || d.released[rel.id] != rel {
		return
	}
	_ = d.bh.Send(d.addr, d.addrOf(rel.peer), rel.commit)
	rel.timer = d.eng.After(commitTimeout, func() { d.retryCommit(rel) })
}

// handleCommit dispatches on whose domain the target AP is in: ours → adopt
// the client; someone else's → it is the adopter's announcement (stop
// retransmitting if it echoes one of our releases, and update the
// directory either way). Only a peer controller sends either.
func (d *Domain) handleCommit(from packet.IPv4Addr, m *packet.DomainHandoffCommit) {
	tgt, ok := d.apAt[m.TargetAP]
	if _, isPeer := d.peerAt(from); !ok || !isPeer {
		return
	}
	if tgt.Domain != d.id {
		if rel := d.released[m.HandoffID]; rel != nil {
			rel.timer.Stop()
			delete(d.released, rel.id)
		}
		if !d.Owns(m.Client) {
			d.owner[m.Client] = tgt.Domain
		}
		return
	}
	if d.adoptedIDs[m.HandoffID] {
		// Retransmitted commit: our announcement was lost — re-announce so
		// the offerer stops, but never re-apply the bundle.
		d.announce(m)
		return
	}
	d.adopt(m)
}

// adopt applies a commit's state bundle (admit), drains any downlink
// buffered while the commit was in flight, announces ownership, and has the
// controller pull the client — the §3.1.2 switch that physically moves it
// onto our AP.
func (d *Domain) adopt(m *packet.DomainHandoffCommit) {
	if !d.admit(m) {
		return
	}
	now := d.eng.Now()
	mac := m.Client
	// Without a staged accept the commit is unsolicited: our accept state is
	// gone (timeout, crash, or a lost offer exchange), but the offerer has
	// already released — so the commit is authoritative and refusing it
	// would strand the client with no owner at all.
	if ad := d.byClient[mac]; ad != nil && ad.id == m.HandoffID {
		ad.timer.Stop()
		delete(d.byClient, mac)
	} else {
		d.Stats.UnsolicitedAdoptions++
	}
	d.adoptedIDs[m.HandoffID] = true
	d.Stats.Adoptions++
	if q := d.pendingDown[mac]; len(q) > 0 {
		delete(d.pendingDown, mac)
		d.Stats.DownDrained += uint64(len(q))
		for _, p := range q {
			_ = d.ctl.SendDownlink(p)
		}
	}
	d.announce(m)

	// An old AP outside the city table is one nobody can stop.
	old := controller.APInfo{ID: -1}
	if a, known := d.apAt[m.ServingAP]; known {
		old = a.APInfo
	}
	toMed := 0.0
	if len(m.Evidence) > 0 {
		toMed = m.Evidence[0].MedianQ.Float()
	}
	d.met.switchSpans.Begin(m.HandoffID, int64(now), mac.String(),
		old.ID, d.apAt[m.TargetAP].ID, metrics.CauseDomainHandoff, 0, toMed)
	// The cross-domain switch stays off the controller's ledger and lands on
	// ours.
	d.ctl.PullFrom(mac, old, m.HandoffID, func(sw controller.SwitchRecord) {
		d.Adopted = append(d.Adopted, sw)
		d.switched(sw)
	})
}

// release is the one way a client leaves this domain, over the wire
// (handleAccept) or through a metro seam (Tier.Release): the controller
// exports the client's serving AP, 12-bit index cursor and newest dedup keys
// into commit and forgets it, and so does this domain.
func (d *Domain) release(commit *packet.DomainHandoffCommit) {
	if s := d.ctl.ServingAP(commit.Client); s >= 0 {
		commit.ServingAP = d.city[s].IP
	}
	commit.NextIndex, commit.DedupKeys, _ = d.ctl.ReleaseClient(commit.Client, packet.MaxHandoffDedupKeys)
	delete(d.owned, commit.Client)
}

// admit is the one way a client enters this domain's ownership, over the
// wire (adopt) or through Admit (a fresh client, or a metro seam): the
// controller resumes the commit's index cursor and dedup window at the
// target AP, each evidence median naming one of our APs warms that AP's
// window (the controller ignores the rest), and this domain owns the
// client. It reports false, changing nothing, when the target AP is not
// ours.
func (d *Domain) admit(m *packet.DomainHandoffCommit) bool {
	entry, ok := d.apAt[m.TargetAP]
	if !ok || entry.Domain != d.id {
		return false
	}
	d.ctl.AdoptClient(m.Client, m.ClientIP, entry.ID, m.NextIndex, m.DedupKeys)
	for _, ev := range m.Evidence {
		if a, ok := d.apAt[ev.AP]; ok {
			d.ctl.SeedESNR(m.Client, a.ID, ev.MedianQ.Float())
		}
	}
	d.owner[m.Client] = d.id
	d.owned[m.Client] = &fedClient{mac: m.Client, ip: m.ClientIP, lastHandoff: d.eng.Now()}
	return true
}

// announce broadcasts a slim (bundle-free) copy of the commit to every
// other domain: the echo that stops the offerer's retransmission, and the
// directory update for third parties.
func (d *Domain) announce(m *packet.DomainHandoffCommit) {
	slim := &packet.DomainHandoffCommit{
		HandoffID: m.HandoffID, Client: m.Client, ClientIP: m.ClientIP,
		ServingAP: m.ServingAP, TargetAP: m.TargetAP, NextIndex: m.NextIndex,
	}
	for _, dom := range d.domains {
		if dom == d.id {
			continue
		}
		_ = d.bh.Send(d.addr, d.addrOf(dom), slim)
	}
}

// Crash implements chaos.Target: the inner controller crashes and every
// federation state machine dies with it. In-flight outgoing offers
// and pre-staged adoptions abort; commit retransmission stops (the adopter
// almost certainly has the client — its announcements go unheard until
// recovery); a pull in flight dies with the inner controller's other ops.
func (d *Domain) Crash() {
	if d.ctl.Down() {
		return
	}
	d.ctl.Crash()
	for _, fc := range d.owned {
		if fc.out != nil {
			fc.out.timer.Stop()
			fc.out = nil
			d.Stats.Aborts++
		}
		d.ctl.SetFrozen(fc.mac, false)
	}
	for _, rel := range d.released {
		rel.timer.Stop()
	}
	clear(d.released)
	for _, ad := range d.byClient {
		ad.timer.Stop()
		d.Stats.Aborts++
	}
	clear(d.byClient)
	for _, q := range d.pendingDown {
		d.Stats.DownDiscarded += uint64(len(q))
	}
	clear(d.pendingDown)
}

// Restart implements chaos.Target: the inner controller comes back cold
// (controller.Restart); the handoff state Crash cleared starts empty.
func (d *Domain) Restart() { d.ctl.Restart() }

// Down implements chaos.Target.
func (d *Domain) Down() bool { return d.ctl.Down() }
