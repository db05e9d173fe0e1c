package controller

import (
	"fmt"

	"wgtt/internal/packet"
	"wgtt/internal/sim"
)

// This file is the controller's downlink fan-out data plane (§3.1.1,
// DESIGN.md §14): every downlink packet is replicated to each alive AP that
// heard the client within FanoutWindow — any of them can deliver it — and
// to the serving AP, if alive, whatever its recency; or to every alive AP
// while none has heard the client yet (bootstrap). Liveness is filtered
// per packet, so a dead AP's recency evidence survives its outage. Targets
// come out in ascending AP position, because backhaul delivery order is
// part of the determinism contract.

// fanHeard records that the AP at position s heard the client now.
func (cl *clientCtl) fanHeard(s int, now sim.Time) {
	cl.lastHeard[s] = now
	cl.heardEver[s] = true
}

// fanTargets computes the downlink fan-out targets for cl at now into the
// controller's reusable scratch, valid until the next call, and counts the
// positions heard within FanoutWindow (the fanout_set_size gauge), alive or
// not.
func (c *Controller) fanTargets(cl *clientCtl, now sim.Time) (tgts []packet.IPv4Addr, fresh int) {
	tgts = c.targetScratch[:0]
	heard := false
	for s, a := range c.aps {
		recent := false
		if cl.heardEver[s] {
			heard = true
			recent = now-cl.lastHeard[s] <= c.cfg.FanoutWindow
		}
		if recent {
			fresh++
		}
		if (recent || s == cl.serving) && c.apAlive(s) {
			tgts = append(tgts, a.IP)
		}
	}
	if !heard {
		// Bootstrap: no AP has heard the client yet — fan out broadly.
		tgts = tgts[:0]
		for s, a := range c.aps {
			if c.apAlive(s) {
				tgts = append(tgts, a.IP)
			}
		}
	}
	c.targetScratch = tgts
	return tgts, fresh
}

// SendDownlink accepts one downlink packet from the wired side, assigns its
// 12-bit index, and fans it out to fanTargets. The DownData envelope is a
// reused scratch encoded once by the fabric's fan-out fast path and
// replicated per target; its APDst field is zero on this path — the AP
// ignores it, per-copy addressing lives in the fabric envelope.
func (c *Controller) SendDownlink(p *packet.Packet) error {
	if c.down {
		// A crashed controller forwards nothing; the wired side's packets
		// are simply lost until Restart (DESIGN.md §11).
		return nil
	}
	cl := c.clients[p.ClientMAC]
	if cl == nil {
		return fmt.Errorf("controller: unknown client %v", p.ClientMAC)
	}
	p.Index = cl.nextIndex
	cl.nextIndex = packet.NextIndex(cl.nextIndex)
	c.Stats.DownlinkSent++

	targets, fresh := c.fanTargets(cl, c.eng.Now())
	// Copies count per target attempted, send outcome regardless — the
	// accounting the per-target Send loop kept (its errors were ignored).
	c.Stats.DownlinkCopies += uint64(len(targets))
	c.met.fanoutSetSize.Set(float64(fresh))
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
