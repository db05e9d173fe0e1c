package core

import (
	"fmt"

	"wgtt/internal/client"
	"wgtt/internal/federation"
	"wgtt/internal/mobility"
	"wgtt/internal/packet"
)

// This file is the cell side of the metro's cross-cell client migration
// (DESIGN.md §17). A metro cell is a single-domain WGTT network; when a
// client's route leaves the cell, the fleet's epoch scheduler exports the
// client's volatile controller state as a §13 DomainHandoffCommit — the
// same wire message the federation layer moves clients with inside a cell —
// and the destination cell admits it, completing the bootstrap that Build
// deferred (ClientSpec.Deferred). Both calls run at an epoch barrier, when
// every cell's clock sits at exactly the same instant, so they are direct
// state transfers rather than simulated backhaul traffic; the commit still
// round-trips through packet.Encode/Decode at the fleet layer, keeping the
// carried state bounded by what the §13 wire format can express.

// ExportCellHandoff captures a departing client's volatile state — the
// 12-bit downlink index cursor, the bounded uplink dedup window, and the
// serving AP's windowed-median ESNR evidence — as a §13 commit, then
// releases the client: keepalives stop, every AP drops its serving flag,
// and the controller forgets the client. The TargetAP field is left zero;
// the admitting cell owns the target-AP decision (its AP namespace is not
// ours). Single-controller WGTT cells only.
func (n *Network) ExportCellHandoff(clientID int, handoffID uint32) (*packet.DomainHandoffCommit, error) {
	if n.Ctl == nil {
		return nil, fmt.Errorf("core: cell handoff export needs a single-controller WGTT cell")
	}
	cl := n.Clients[clientID]
	mac, ip := cl.Config().MAC, cl.Config().IP
	serving := n.Ctl.ServingAP(mac)
	if serving < 0 {
		return nil, fmt.Errorf("core: client %d is not admitted here", clientID)
	}
	commit := &packet.DomainHandoffCommit{
		HandoffID: handoffID,
		Client:    mac,
		ClientIP:  ip,
		ServingAP: n.APs[serving].Config().IP,
	}
	if med, ok := n.Ctl.MedianESNR(mac, serving); ok {
		commit.Evidence = []packet.APESNR{{
			AP:      n.APs[serving].Config().IP,
			MedianQ: federation.QuantizeEvidenceDB(med),
		}}
	}
	cl.StopKeepalive()
	commit.NextIndex, commit.DedupKeys, _ = n.Ctl.ReleaseClient(mac, packet.MaxHandoffDedupKeys)
	n.associate(cl, -1)
	return commit, nil
}

// AdmitCellHandoff installs a client migrating in from another cell: the
// controller adopts it at entryAP with the carried index cursor and dedup
// window, the exporter's serving-AP evidence is re-seeded onto entryAP (the
// best prior the new cell has — its own APs have never heard this client),
// the AP-side serving flag moves to entryAP, and keepalives start. No pull
// follows: the admission happens at an epoch barrier, not mid-handshake, so
// there is no old AP to stop.
func (n *Network) AdmitCellHandoff(clientID, entryAP int, commit *packet.DomainHandoffCommit) error {
	if n.Ctl == nil {
		return fmt.Errorf("core: cell handoff admission needs a single-controller WGTT cell")
	}
	if entryAP < 0 || entryAP >= len(n.APs) {
		return fmt.Errorf("core: entry AP %d out of range", entryAP)
	}
	cl := n.Clients[clientID]
	if n.Ctl.ServingAP(cl.Config().MAC) >= 0 {
		return fmt.Errorf("core: client %d is already admitted here", clientID)
	}
	return n.admitClient(cl, entryAP, commit)
}

// associate replicates the client's §4.3 association onto every AP, with
// the serving flag on AP serving alone (-1: on none — a client that is
// built but not, or no longer, in this cell).
func (n *Network) associate(cl *client.Client, serving int) {
	for apID, a := range n.APs {
		a.Associate(cl.Config().MAC, cl.Config().IP, apID == serving)
	}
}

// admitClient is the one WGTT admission sequence — AP association,
// controller registration, keepalive start — run by Build for every client
// present at time zero (commit nil: a fresh registration) and by
// AdmitCellHandoff for a client migrating in (the controller adopts the
// commit's state instead).
func (n *Network) admitClient(cl *client.Client, serving int, commit *packet.DomainHandoffCommit) error {
	mac, ip := cl.Config().MAC, cl.Config().IP
	n.associate(cl, serving)
	switch {
	case commit != nil:
		n.Ctl.AdoptClient(mac, ip, serving, commit.NextIndex, commit.DedupKeys)
		for _, ev := range commit.Evidence {
			n.Ctl.SeedESNR(mac, serving, federation.DequantizeEvidenceDB(ev.MedianQ))
		}
		// The entry AP serves from the adopted index cursor, not from
		// whatever ring state a previous stint of this client left behind:
		// without the alignment, a former fan-out member re-appointed as
		// serving would drain its stale backlog — packets the client already
		// received, long past its TTL-bounded duplicate window.
		n.APs[serving].AlignQueue(mac, commit.NextIndex)
	case n.Fed != nil:
		if err := n.Fed.RegisterClient(mac, ip, serving); err != nil {
			return err
		}
	default:
		n.Ctl.RegisterClient(mac, ip, serving)
	}
	n.startClientKeepalive(cl)
	return nil
}

// NearestAPTo returns the active AP closest to a point — how the admitting
// cell picks a migrating client's entry AP from its seam-crossing position.
func (n *Network) NearestAPTo(p mobility.Point) int { return nearestAP(n.APPosition, p) }

// startClientKeepalive starts one client's null-data CSI probes at the
// scenario's pace.
func (n *Network) startClientKeepalive(cl *client.Client) {
	interval := n.Scenario.keepalive
	if interval == 0 {
		interval = corridorKeepalive
	}
	cl.StartKeepalive(interval)
}
