package controller

import (
	"fmt"

	"wgtt/internal/packet"
	"wgtt/internal/sim"
)

// This file is the controller's downlink fan-out data plane (§3.1.1,
// DESIGN.md §14): every downlink packet is replicated to each AP that heard
// the client within FanoutWindow — any of them can deliver it — or to every
// alive AP while none has heard the client yet (bootstrap).
//
// The fan-out target set used to be recomputed per packet with an O(#APs)
// scan over heardEver/lastHeard. It is now maintained incrementally as a
// per-client relevance set, with these invariants:
//
//   - fanSet holds AP positions in c.aps in ascending order, each exactly
//     once; inFan[a] mirrors membership.
//   - Membership is a superset property: heardEver[a] && the client was
//     heard from a within FanoutWindow as of the last fanTargets sweep
//     ⇒ a ∈ fanSet. Every CSI arrival (and federation ESNR seed) inserts
//     the AP; expiry is lazy — stale members are compacted out during the
//     next fan-out emission, which re-checks lastHeard anyway.
//   - AP death and re-admission never touch the set: liveness is filtered
//     per emission, exactly as the old scan consulted apAlive, so a dead
//     AP's recency evidence survives its outage (matching heardEver's).
//   - heardCount counts true heardEver entries; zero selects the bootstrap
//     broadcast. heardEver is never unset: a Restart rebuilds the client
//     with both empty.
//
// Emission order is ascending AP position with the serving AP merged at
// its sorted position — the same order the old c.aps scan produced —
// because backhaul delivery order is part of the determinism contract.

// fanHeard records that the AP at position s heard the client now:
// refreshes the recency stamp and inserts the AP into the relevance set.
func (cl *clientCtl) fanHeard(s int, now sim.Time) {
	cl.lastHeard[s] = now
	if !cl.heardEver[s] {
		cl.heardEver[s] = true
		cl.heardCount++
	}
	if cl.inFan[s] {
		return
	}
	cl.inFan[s] = true
	id := int32(s)
	i := len(cl.fanSet)
	cl.fanSet = append(cl.fanSet, 0)
	for i > 0 && cl.fanSet[i-1] > id {
		cl.fanSet[i] = cl.fanSet[i-1]
		i--
	}
	cl.fanSet[i] = id
}

// fanTargets computes the downlink fan-out targets for cl at now into the
// controller's reusable scratch, compacting expired members out of the
// relevance set as it goes. The result is valid until the next call.
func (c *Controller) fanTargets(cl *clientCtl, now sim.Time) []packet.IPv4Addr {
	tgts := c.targetScratch[:0]
	if cl.heardCount == 0 {
		// Bootstrap: no AP has heard the client yet — fan out broadly.
		for id, a := range c.aps {
			if c.apAlive(id) {
				tgts = append(tgts, a.IP)
			}
		}
		c.targetScratch = tgts
		return tgts
	}
	serving := cl.serving
	servingAlive := c.apAlive(serving)
	servingEmitted := false
	keep := cl.fanSet[:0]
	for _, id32 := range cl.fanSet {
		id := int(id32)
		if servingAlive && !servingEmitted && serving <= id {
			// The serving AP is always a target (alive permitting), fresh
			// recency or not; emit it at its sorted position.
			tgts = append(tgts, c.aps[serving].IP)
			servingEmitted = true
		}
		if now-cl.lastHeard[id] > c.cfg.FanoutWindow {
			cl.inFan[id] = false
			continue // expired: compact out; a new CSI will re-insert
		}
		keep = append(keep, id32)
		if id != serving && c.apAlive(id) {
			tgts = append(tgts, c.aps[id].IP)
		}
	}
	cl.fanSet = keep
	if servingAlive && !servingEmitted {
		tgts = append(tgts, c.aps[serving].IP)
	}
	c.targetScratch = tgts
	return tgts
}

// SendDownlink accepts one downlink packet from the wired side, assigns its
// 12-bit index, and fans it out to every AP in the client's relevance set
// (or all alive APs if none has heard it yet). The DownData envelope is a
// reused scratch encoded once by the fabric's fan-out fast path and
// replicated per target; its APDst field is zero on this path — the AP
// ignores it, per-copy addressing lives in the fabric envelope.
func (c *Controller) SendDownlink(p *packet.Packet) error {
	if c.down {
		// A crashed controller forwards nothing; the wired side's packets
		// are simply lost until Restart (DESIGN.md §11).
		c.Stats.CtlDownlinkDropped++
		return nil
	}
	cl := c.clients[p.ClientMAC]
	if cl == nil {
		return fmt.Errorf("controller: unknown client %v", p.ClientMAC)
	}
	p.Index = cl.nextIndex
	cl.nextIndex = packet.NextIndex(cl.nextIndex)
	c.Stats.DownlinkSent++

	targets := c.fanTargets(cl, c.eng.Now())
	// Copies count per target attempted, send outcome regardless — the
	// accounting the per-target Send loop kept (its errors were ignored).
	c.Stats.DownlinkCopies += uint64(len(targets))
	c.met.fanoutSetSize.Set(float64(len(cl.fanSet)))
	c.met.fanoutDepth.Observe(float64(len(targets)))
	if len(targets) == 0 {
		return nil
	}
	c.downScratch.APDst = packet.IPv4Addr{}
	c.downScratch.Pkt = p
	c.bh.SendMany(c.addr, targets, &c.downScratch)
	c.downScratch.Pkt = nil
	return nil
}
