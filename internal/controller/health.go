package controller

import (
	"wgtt/internal/metrics"
	"wgtt/internal/packet"
	"wgtt/internal/sim"
)

// This file is the controller's failure-recovery half (DESIGN.md §11): the
// AP health monitor, the forced-failover path that rescues clients off a
// dead AP without the dead AP's cooperation, and the controller's own
// crash/recover hooks for chaos injection.
//
// The monitor is passive first: every backhaul message an AP sends — CSI
// reports, tunneled uplink, switch acks — refreshes its last-heard time, so
// under normal traffic liveness costs nothing. An AP quiet for a full
// HealthInterval gets an explicit HealthProbe; that distinguishes "alive
// but hears no clients" (answers the probe over the wired backhaul) from
// "dead" (answers nothing). Silence through DetectTimeout marks the AP
// dead: it is excluded from selection and fan-out, and every client it was
// serving — or mid-handshake with — is force-switched to the best alive AP
// with a direct start(c, k). The stop half of §3.1.2 is skipped because a
// dead AP can neither answer a stop nor tell anyone its cursor k; the
// controller substitutes its own next index, accepting that packets only
// the dead AP had left unsent are lost (the transport retransmits). Any
// later message from a dead AP re-admits it instantly.

// apHealth is one AP's liveness state.
type apHealth struct {
	lastHeard sim.Time
	alive     bool
	deadSince sim.Time
	// recoveryID is the recovery span opened by the latest death (0 none).
	recoveryID uint32
}

// apAlive reports whether the AP is considered alive. With the monitor
// disabled every AP is alive — the chaos-free fast path.
func (c *Controller) apAlive(id int) bool {
	if c.health == nil || id < 0 || id >= len(c.health) {
		return true
	}
	return c.health[id].alive
}

// noteAPAlive refreshes the sender's last-heard time and re-admits it if
// it had been marked dead.
func (c *Controller) noteAPAlive(from packet.IPv4Addr) {
	if c.health == nil {
		return
	}
	id, ok := c.ipToAP[from]
	if !ok {
		return
	}
	h := &c.health[id]
	h.lastHeard = c.eng.Now()
	if !h.alive {
		h.alive = true
		c.Stats.APsReadmitted++
	}
}

// healthTick is the periodic monitor scan: probe APs quiet for a full
// interval, declare dead those quiet through the detection timeout.
func (c *Controller) healthTick() {
	if !c.down {
		now := c.eng.Now()
		for id := range c.health {
			h := &c.health[id]
			silent := now - h.lastHeard
			if h.alive && silent >= DetectTimeout {
				c.markAPDead(id)
			}
			if silent >= HealthInterval {
				// Quiet for a full tick (dead APs included — the probe
				// doubles as the re-admission ping): ask explicitly.
				c.probeSeq++
				c.Stats.HealthProbes++
				probe := &packet.HealthProbe{Seq: c.probeSeq, At: int64(now)}
				_ = c.bh.Send(c.addr, c.aps[id].IP, probe)
			}
		}
	}
	c.eng.After(HealthInterval, c.healthTick)
}

// markAPDead declares one AP dead and rescues its clients.
func (c *Controller) markAPDead(id int) {
	h := &c.health[id]
	h.alive = false
	h.deadSince = c.eng.Now()
	c.Stats.APsMarkedDead++

	// Collect the stranded clients first (in registration order — the map
	// would be nondeterministic): those served by the dead AP, and those
	// whose in-flight switch touches it.
	var stranded []*clientCtl
	for _, mac := range c.clientOrder {
		cl := c.clients[mac]
		if cl.serving == id || (cl.op != nil && cl.op.to == id) {
			stranded = append(stranded, cl)
		}
	}
	h.recoveryID = 0
	if len(stranded) > 0 {
		c.recoverySeq++
		h.recoveryID = c.recoverySeq
		if c.met.recoverySpans != nil {
			ap := c.aps[id].ID
			c.met.recoverySpans.Begin(h.recoveryID, int64(h.deadSince),
				packet.APName(ap), ap, -1, metrics.CauseAPFailure, 0, 0)
		}
	}
	for _, cl := range stranded {
		c.forceSwitch(cl, h.recoveryID)
	}
}

// pickFailover selects the best alive AP for a stranded client: highest
// in-window median ESNR (any sample count — a stranded client cannot be
// choosy, so MinSamples and MinSwitchESNRdB do not gate here), falling
// back to the alive AP that heard the client most recently, then to the
// lowest-numbered alive AP. Returns -1 only when every AP is dead.
func (c *Controller) pickFailover(cl *clientCtl) int {
	now := c.eng.Now()
	best := c.sel.BestAlive(cl.mac, now, c.aliveFn)
	if best != -1 {
		return best
	}
	for id := range cl.lastHeard {
		if !c.apAlive(id) || !cl.heardEver[id] {
			continue
		}
		if best == -1 || cl.lastHeard[id] > cl.lastHeard[best] {
			best = id
		}
	}
	if best != -1 {
		return best
	}
	for id := range c.aps {
		if c.apAlive(id) {
			return id
		}
	}
	return -1
}

// forceSwitch moves a stranded client to the best alive AP via a direct
// start. recoveryID (0 = none) ties the op to its incident's recovery span.
func (c *Controller) forceSwitch(cl *clientCtl, recoveryID uint32) {
	to := c.pickFailover(cl)
	if to < 0 {
		// Every AP is dead. Drop any op aimed at a dead target; the next
		// health tick (or a re-admission) retries while the outage lasts.
		if cl.op != nil && !c.apAlive(cl.op.to) {
			c.cut(cl)
		}
		return
	}
	old := c.aps[cl.serving]
	var done func(SwitchRecord)
	if op := cl.op; op != nil {
		if op.to == to {
			// Overlapping-switch guard: a handshake toward this AP is
			// already pending. Escalate the SAME op to a direct start —
			// same SwitchID, no second switch toward the same AP.
			if !op.forced {
				op.forced = true
				op.recoveryID = recoveryID
				op.timer.Stop()
				c.Stats.ForcedSwitches++
				c.met.recoverySpans.MarkStartHandled(recoveryID, int64(c.eng.Now()))
				c.transmit(cl, op)
			}
			return
		}
		// The in-flight op's target is unusable (it died): abandon it and
		// open a fresh forced op toward the new pick, which completes a
		// pull in the abandoned one's place — from the peer's AP the
		// client never left — or starts a switch of our own.
		op.timer.Stop()
		cl.op = nil
		if done = op.done; done != nil {
			old = op.old
		} else {
			c.Stats.SwitchesCut++
		}
	}
	c.switchSeq++
	now := c.eng.Now()
	op := &switchOp{
		id: c.switchSeq, old: old, to: to,
		sentAt: now, forced: true, recoveryID: recoveryID, done: done,
	}
	cl.op = op
	if done == nil {
		c.Stats.SwitchesStarted++
	}
	c.Stats.ForcedSwitches++
	if c.met.spans != nil {
		toMed, _ := c.sel.Median(cl.mac, to, now)
		c.met.spans.Begin(op.id, int64(now), cl.mac.String(),
			old.ID, c.aps[to].ID, metrics.CauseFailover, 0, toMed)
	}
	c.met.recoverySpans.MarkStartHandled(recoveryID, int64(now))
	c.transmit(cl, op)
}

// Crash models a controller crash (chaos injection): the controller stops
// hearing the backhaul and forwarding downlink, and its soft state — the
// in-flight switch handshakes — dies with it: each one's switch span, and
// the recovery span of an AP failure it was rescuing, is cut short. Client
// registrations are durable (§4.3 replicates association state to every
// AP, the store a restarted controller re-reads), so Restart keeps them.
func (c *Controller) Crash() {
	if c.down {
		return
	}
	c.down = true
	now := int64(c.eng.Now())
	for _, mac := range c.clientOrder {
		cl := c.clients[mac]
		if cl.op != nil {
			c.met.spans.End(cl.op.id, now, true)
			c.met.recoverySpans.End(cl.op.recoveryID, now, true)
			c.cut(cl)
		}
	}
}

// Restart brings the controller back cold: each registered client's state
// is rebuilt by newClient, the constructor RegisterClient uses, carrying
// over only what outlives a crash — MAC, IP and serving AP, which §4.3
// replicates to every AP, and the per-client uplink counters the
// evaluation reads. Everything else (ESNR windows, fan-out evidence, dedup
// set, dwell clock, the 12-bit index, which restarts at 0) starts empty. Every AP's silence clock restarts at
// the restart instant so the monitor does not mass-declare deaths for the
// outage the controller itself caused.
func (c *Controller) Restart() {
	if !c.down {
		return
	}
	c.down = false
	for _, mac := range c.clientOrder {
		old := c.clients[mac]
		cl := c.newClient(mac, old.ip, old.serving)
		cl.UplinkUnique, cl.UplinkDuplicate = old.UplinkUnique, old.UplinkDuplicate
		c.clients[mac] = cl
	}
	c.dedupEntries = 0
	c.met.dedupSize.Set(0)
	now := c.eng.Now()
	for i := range c.health {
		c.health[i].alive = true
		c.health[i].lastHeard = now
	}
}

// Down reports whether the controller is currently crashed.
func (c *Controller) Down() bool { return c.down }
