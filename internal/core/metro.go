package core

import (
	"fmt"

	"wgtt/internal/client"
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

// ExportCellHandoff releases a departing client from the cell's controller
// tier (federation.Tier.Release) as a §13 commit — the 12-bit downlink index
// cursor, the bounded uplink dedup window, and the serving AP's
// windowed-median ESNR evidence — then stops its keepalives and drops every
// AP's serving flag. The commit names the client and its evidence AP in this
// cell's namespace, and leaves TargetAP zero: the admitting cell owns the
// target-AP decision.
func (n *Network) ExportCellHandoff(clientID int, handoffID uint32) (*packet.DomainHandoffCommit, error) {
	if n.Fed == nil {
		return nil, fmt.Errorf("core: cell handoff export needs a WGTT cell")
	}
	cl := n.Clients[clientID]
	commit, err := n.Fed.Release(cl.Config().MAC, handoffID)
	if err != nil {
		return nil, fmt.Errorf("core: client %d is not admitted here: %w", clientID, err)
	}
	cl.StopKeepalive()
	n.associate(cl, -1)
	return commit, nil
}

// AdmitCellHandoff installs a client migrating in from another cell through
// the tier (federation.Tier.Admit): the commit's client and evidence AP are
// translated into this cell's namespace — our client, and entryAP, the best
// prior the new cell has for evidence its own APs never heard — and the
// controller resumes the carried index cursor and dedup window at entryAP.
// No pull follows: the admission happens at an epoch barrier, not
// mid-handshake, so there is no old AP to stop.
func (n *Network) AdmitCellHandoff(clientID, entryAP int, commit *packet.DomainHandoffCommit) error {
	if n.Fed == nil {
		return fmt.Errorf("core: cell handoff admission needs a WGTT cell")
	}
	if entryAP < 0 || entryAP >= len(n.APs) {
		return fmt.Errorf("core: entry AP %d out of range", entryAP)
	}
	if n.ServingAP(clientID) >= 0 {
		return fmt.Errorf("core: client %d is already admitted here", clientID)
	}
	cl, entry := n.Clients[clientID], n.APs[entryAP].Config().IP
	commit.Client, commit.ClientIP, commit.TargetAP = cl.Config().MAC, cl.Config().IP, entry
	for i := range commit.Evidence {
		commit.Evidence[i].AP = entry
	}
	// The entry AP serves from the adopted index cursor, not from whatever
	// ring state a previous stint of this client left behind: without the
	// alignment, a former fan-out member re-appointed as serving would drain
	// its stale backlog — packets the client already received, long past its
	// TTL-bounded duplicate window.
	n.APs[entryAP].AlignQueue(commit.Client, commit.NextIndex)
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

// admitClient is the one WGTT admission sequence — AP association, tier
// admission, keepalive start — run by Build for every client present at
// time zero (an empty bundle at its first AP) and by AdmitCellHandoff for a
// client migrating in (the state it carries).
func (n *Network) admitClient(cl *client.Client, serving int, commit *packet.DomainHandoffCommit) error {
	n.associate(cl, serving)
	if err := n.Fed.Admit(commit); err != nil {
		return err
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
