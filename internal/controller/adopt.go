package controller

import (
	"wgtt/internal/packet"
)

// This file is the controller's federation surface (DESIGN.md §13): the
// hooks a federation domain uses to move a client between controller
// instances with its volatile state intact. The controller itself stays
// unaware of the handoff protocol — it only knows how to export a client's
// state bundle, install one, pull an installed client off the peer's AP
// (PullFrom, controller.go), and hold its selection rule off a client the
// owner has offered away.

// AdoptClient installs a client handed over from a peer controller. Unlike
// RegisterClient it resumes the peer's 12-bit downlink index cursor and
// uplink de-duplication window instead of starting cold — downlink indices
// stay continuous across the domain boundary, and packets heard by both
// domains around the handoff are still suppressed exactly once. Adoption
// starts a hysteresis dwell, so the new domain does not immediately bounce
// the client back; a federation adopter follows it with PullFrom, whose op
// holds the selection rule off until the client has physically moved. A
// client already present is left untouched (duplicate commit), and so is
// one whose serving AP this controller does not command.
func (c *Controller) AdoptClient(mac packet.MACAddr, ip packet.IPv4Addr, servingAP int,
	nextIndex uint16, dedup []packet.DedupKey) {
	if _, ok := c.clients[mac]; ok {
		return
	}
	c.RegisterClient(mac, ip, servingAP)
	cl := c.clients[mac]
	if cl == nil {
		return
	}
	cl.nextIndex = nextIndex
	for _, k := range dedup {
		if _, dup := cl.dedup[k]; dup {
			continue
		}
		cl.dedup[k] = struct{}{}
		cl.dedupFIFO = append(cl.dedupFIFO, k)
		c.dedupEntries++
	}
	c.met.dedupSize.Set(float64(c.dedupEntries))
	cl.lastSwitch = c.eng.Now()
}

// ReleaseClient removes a client handed off to a peer controller, dropping
// its soft state and cancelling any in-flight switch. It returns what the
// peer's AdoptClient resumes from — the next downlink index and the last
// maxDedup uplink dedup keys, oldest first — and whether the client was
// present.
func (c *Controller) ReleaseClient(mac packet.MACAddr, maxDedup int) (nextIndex uint16, dedup []packet.DedupKey, ok bool) {
	cl := c.clients[mac]
	if cl == nil {
		return 0, nil, false
	}
	if cl.op != nil {
		c.cut(cl)
	}
	c.dedupEntries -= len(cl.dedup)
	c.met.dedupSize.Set(float64(c.dedupEntries))
	c.sel.RemoveClient(mac)
	delete(c.clients, mac)
	for i, m := range c.clientOrder {
		if m == mac {
			c.clientOrder = append(c.clientOrder[:i], c.clientOrder[i+1:]...)
			break
		}
	}
	dedup = cl.dedupFIFO
	if len(dedup) > maxDedup {
		dedup = dedup[len(dedup)-maxDedup:]
	}
	return cl.nextIndex, dedup, true
}

// SetFrozen holds the selection rule off a client (true) or lifts the hold
// (false) — the owner's side of an outstanding handoff offer. While frozen
// the controller still ingests CSI, serves downlink, and de-duplicates
// uplink — it just never initiates a switch.
func (c *Controller) SetFrozen(mac packet.MACAddr, frozen bool) {
	if cl := c.clients[mac]; cl != nil {
		cl.frozen = frozen
	}
}

// InFlightSwitch reports whether the client has a §3.1.2 handshake
// outstanding. A federation domain defers offering a client away while one
// is: handing off mid-switch would strand the stop/start pair.
func (c *Controller) InFlightSwitch(mac packet.MACAddr) bool {
	cl := c.clients[mac]
	return cl != nil && cl.op != nil
}

// SeedESNR pushes one synthetic reading into the selector's (client, AP)
// window — how an adopter installs the old owner's ESNR evidence so
// selection does not start blind (DESIGN.md §15). Seeding also stamps the
// AP as having heard the client, so it joins the downlink fan-out
// (fanout.go): the carried evidence is exactly the recency knowledge the
// old owner's fan-out ran on, so the adopted client's downlink replicates
// to the same APs without waiting for fresh CSI. An AP this controller
// does not command is ignored.
func (c *Controller) SeedESNR(mac packet.MACAddr, apID int, esnrDB float64) {
	cl, s := c.clients[mac], c.slot(apID)
	if cl == nil || s < 0 {
		return
	}
	now := c.eng.Now()
	c.sel.Observe(mac, s, esnrDB, now)
	cl.fanHeard(s, now)
}
