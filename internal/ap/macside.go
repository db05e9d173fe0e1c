package ap

import (
	"wgtt/internal/mac"
	"wgtt/internal/packet"
	"wgtt/internal/phy"
	"wgtt/internal/sim"
)

// This file is the AP's 802.11 face: it implements mac.Source (aggregate
// assembly from the cyclic/retry queues) and mac.Sink (uplink reception,
// CSI reporting, monitor-mode Block ACK capture).

// BuildFrame implements mac.Source. It serves clients round-robin,
// retransmissions first, then fresh packets pulled from the cyclic queue —
// at this instant, not earlier, which is what gives the stop protocol its
// bite: a quenched client simply yields no MPDUs.
func (a *AP) BuildFrame() *mac.Frame {
	if a.down {
		return nil // a crashed AP's radio is silent (DESIGN.md §11)
	}
	cs := a.pickClient()
	if cs == nil {
		return nil
	}
	// Pick the rate first: the TXOP limit caps the aggregate's airtime, so
	// the byte budget depends on the MCS (ath9k caps A-MPDUs the same way).
	mcs := a.st.PickMCS(cs.mac)
	budget := min(mac.MaxAggregateBytes, phy.TXOPByteBudget(mcs))

	var mpdus []*mac.MPDU
	bytes := 0

	// Hardware-queue drain after a stop: send what was committed, once.
	if len(cs.drainQ) > 0 {
		n := 0
		for n < len(cs.drainQ) && n < mac.MaxAggregate && bytes < budget {
			mpdus = append(mpdus, cs.drainQ[n])
			bytes += cs.drainQ[n].Bytes
			n++
		}
		cs.drainQ = cs.drainQ[n:]
		if cs.drainPending {
			cs.drainCount += n
			if len(cs.drainQ) == 0 {
				// The last committed MPDU just left toward the NIC — the
				// §3.1.2 drain the old AP performs over its inferior link.
				a.met.spans.ObserveDrain(cs.drainSwitchID, cs.drainCount,
					int64(a.eng.Now()-cs.drainStart))
				cs.drainPending = false
			}
		}
		return &mac.Frame{Kind: mac.KindData, From: a.cfg.BSSID, To: cs.mac, MCS: mcs, MPDUs: mpdus}
	}

	// Retries go first (802.11 retransmits in sequence order where it can).
	n := 0
	for n < len(cs.retryQ) && n < mac.MaxAggregate && bytes < budget {
		mpdus = append(mpdus, cs.retryQ[n])
		bytes += cs.retryQ[n].Bytes
		n++
	}
	cs.retryQ = cs.retryQ[n:]

	// Fresh packets from the cyclic queue, up to the write head.
	for len(mpdus) < mac.MaxAggregate && bytes < budget && cs.backlog() {
		slot := int(cs.nextSend) % cyclicQueueSlots
		p := cs.ring[slot]
		if p == nil || p.Index != cs.nextSend {
			// Fanout gap: this AP never got the packet; skip the slot.
			cs.nextSend = packet.NextIndex(cs.nextSend)
			continue
		}
		mpdus = append(mpdus, &mac.MPDU{
			Seq:   a.st.NextSeq(cs.mac),
			Pkt:   p,
			Bytes: p.Bytes,
		})
		bytes += p.Bytes
		cs.nextSend = packet.NextIndex(cs.nextSend)
	}
	if len(mpdus) == 0 {
		return nil
	}
	return &mac.Frame{
		Kind:  mac.KindData,
		From:  a.cfg.BSSID, // thin-AP: every AP presents the shared BSSID
		To:    cs.mac,
		MCS:   mcs,
		MPDUs: mpdus,
	}
}

// pickClient returns the next client with pending work, rotating the
// round-robin cursor. Non-serving clients only qualify while a post-stop
// hardware-queue drain is pending.
func (a *AP) pickClient() *clientState {
	for i := 0; i < len(a.rr); i++ {
		// Rotated in place: re-slicing and appending would walk the backing
		// array forward and reallocate it every len(a.rr) picks.
		m := a.rr[0]
		copy(a.rr, a.rr[1:])
		a.rr[len(a.rr)-1] = m
		cs := a.clients[m]
		if cs == nil {
			continue
		}
		if len(cs.drainQ) > 0 {
			return cs
		}
		if !cs.serving {
			continue
		}
		if len(cs.retryQ) > 0 || cs.backlog() {
			return cs
		}
	}
	return nil
}

// hasWork reports whether any client has something to send.
func (a *AP) hasWork() bool {
	for _, cs := range a.clients {
		if len(cs.drainQ) > 0 {
			return true
		}
		if !cs.serving {
			continue
		}
		if len(cs.retryQ) > 0 || cs.backlog() {
			return true
		}
	}
	return false
}

// OnTxDone implements mac.Source: score the aggregate against the Block ACK
// (if any), requeue or drop the rest, feed rate control.
func (a *AP) OnTxDone(res *mac.TxResult) {
	if a.down {
		// A frame completed as the crash hit: whatever retry state this
		// would produce dies with the AP (Restart wipes it anyway).
		return
	}
	if res == nil || res.Frame == nil {
		if a.hasWork() {
			a.kick()
		}
		return
	}
	fr := res.Frame
	cs := a.clients[fr.To]
	if cs == nil {
		return
	}
	if a.OnFrameTx != nil {
		a.OnFrameTx(phy.Lookup(fr.MCS).DataRateMbps, len(fr.MPDUs), a.eng.Now())
	}
	acked := 0
	for _, mp := range fr.MPDUs {
		if res.BAReceived && mac.BitmapAcks(res.SSN, res.Bitmap, mp.Seq) {
			acked++
			a.Stats.MPDUsDelivered++
			if a.OnDeliver != nil && mp.Pkt != nil {
				a.OnDeliver(mp.Pkt, a.eng.Now())
			}
			continue
		}
		mp.Retries++
		switch {
		case !cs.serving:
			// Stopped while in flight: the paper drains the NIC queue but
			// filters everything still in the driver — the retry is gone.
			a.Stats.MPDUsFlushed++
		case mp.Retries > mac.RetryLimit:
			a.Stats.MPDUsDropped++
		default:
			cs.retryQ = append(cs.retryQ, mp)
		}
	}
	if res.BAReceived {
		a.rememberBA(cs, uint64(res.SSN)<<48^res.Bitmap)
	}
	a.st.ReportTx(fr.To, fr.MCS, len(fr.MPDUs), acked)
	if a.hasWork() {
		a.kick()
	}
}

// OnFrame implements mac.Sink: uplink data tunneling (§3.2.2) and per-frame
// CSI reporting (§3.1.1).
func (a *AP) OnFrame(ev *mac.RxEvent) {
	if a.down {
		return // a crashed AP hears nothing
	}
	if !a.Overhears(ev.From) {
		return // another AP's downlink; nothing to do
	}
	if !ev.Synced {
		// No PLCP lock, no CSI — and an AP whose PHY cannot even sync to
		// the client has not "heard" it for fan-out purposes either.
		return
	}
	a.reportCSI(ev.From, ev.SNRdB, ev.At)
	if ev.Kind != mac.KindData {
		return
	}
	if a.cfg.ForwardOnlyWhenServing {
		if cs := a.clients[ev.From]; cs == nil || !cs.serving {
			return
		}
	}
	for _, mp := range ev.Decoded {
		if mp.Pkt == nil {
			continue
		}
		if mp.Pkt.Kind == packet.KindNull {
			// Nulls are CSI probes, not traffic — the keepalive activity
			// that keeps the §3.1.1 window fed under downlink-only load.
			a.Stats.KeepalivesHeard++
			continue
		}
		a.Stats.UplinkForwarded++
		up := &a.envelopes().up
		up.APSrc, up.Pkt = a.cfg.IP, mp.Pkt
		_ = a.bh.Send(a.cfg.IP, a.controller, up)
	}
}

// OnBlockAck implements mac.BASink. Two duties: CSI from the client's Block
// ACK transmissions, and §3.2.1 forwarding of overheard Block ACKs to the
// client's serving AP (we broadcast to all peers; only the serving AP
// merges).
func (a *AP) OnBlockAck(ev *mac.BAEvent) {
	if a.down {
		return
	}
	if !a.Overhears(ev.Responder) {
		return // an AP acknowledging uplink data; not client state
	}
	a.reportCSI(ev.Responder, ev.SNRdB, ev.At)
	if !ev.Overheard || !a.cfg.BAForwarding {
		return
	}
	cs, known := a.clients[ev.Responder]
	if !known || cs.serving {
		// Serving AP gets the BA through its own TXOP result; only
		// monitor-mode neighbours forward.
		return
	}
	a.Stats.BAForwarded++
	fwd := &a.envelopes().ba
	*fwd = packet.BlockAckFwd{
		Client: ev.Responder,
		FromAP: a.cfg.IP,
		SSN:    ev.SSN,
		Bitmap: ev.Bitmap,
	}
	a.bh.SendMany(a.cfg.IP, a.peers, fwd)
}

// reportCSI quantizes and ships a CSI measurement to the controller.
func (a *AP) reportCSI(client packet.MACAddr, snrDB []float64, at sim.Time) {
	if len(snrDB) == 0 {
		return
	}
	rep := &a.envelopes().csi
	rep.Client, rep.AP, rep.At = client, a.cfg.IP, int64(at)
	rep.QuantizeSNR(snrDB) // sets every SNRQ entry
	a.Stats.CSIReports++
	_ = a.bh.Send(a.cfg.IP, a.controller, rep)
}

// envelopes returns the AP's reusable per-frame messages, made on the first
// frame heard: an AP without a radio never needs them.
func (a *AP) envelopes() *sendScratch {
	if a.out == nil {
		a.out = &sendScratch{}
	}
	return a.out
}

// Overhears implements mac.Sink: an AP uses what it hears from clients —
// CSI from every frame (§3.1.1), their Block ACKs for forwarding (§3.2.1) —
// and nothing sent by AP infrastructure (its own MAC, the BSSID, or a peer
// AP's MAC pattern). OnFrame and OnBlockAck discard by the same rule.
func (a *AP) Overhears(from packet.MACAddr) bool {
	if from == a.cfg.MAC || from == a.cfg.BSSID {
		return false
	}
	// AP MACs share the deterministic APMAC prefix.
	return from[0] != 0x02 || from[1] != 0xa9
}
