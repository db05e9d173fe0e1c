package federation

import (
	"fmt"

	"wgtt/internal/controller"
	"wgtt/internal/packet"
)

// Tier is the wired-side view of a WGTT network's controller plane
// (DESIGN.md §13): it holds every Domain and routes ingress — downlink
// packets, serving-AP queries, clients crossing a metro seam — to the
// client's current owner. Every simulated network runs one; a single
// controller is the tier with one domain. In live mode each Domain is its
// own OS process and the Tier is not used (real ingress routing is the
// commit-driven DownData forwarding between controllers).
type Tier struct {
	Domains []*Domain

	// owner mirrors the domains' directory for O(1) ingress routing; it
	// flips at commit time via each Domain's OnRelease hook.
	owner map[packet.MACAddr]int
}

// NewTier wires the domains together. Domain i must have ID i.
func NewTier(domains []*Domain) *Tier {
	t := &Tier{Domains: domains, owner: make(map[packet.MACAddr]int)}
	for i, d := range domains {
		if d.ID() != i {
			panic(fmt.Sprintf("federation: domain %d at tier slot %d", d.ID(), i))
		}
		prev := d.OnRelease
		d.OnRelease = func(mac packet.MACAddr, to int) {
			t.owner[mac] = to
			if prev != nil {
				prev(mac, to)
			}
		}
	}
	return t
}

// Release exports a client leaving the tier through a metro seam (DESIGN.md
// §17) as a §13 commit — the owner's release, plus the serving AP's
// windowed median as the commit's one evidence entry — and forgets it in
// every domain. TargetAP is left zero: the admitting tier names it.
func (t *Tier) Release(mac packet.MACAddr, handoffID uint32) (*packet.DomainHandoffCommit, error) {
	own, ok := t.owner[mac]
	if !ok || !t.Domains[own].Owns(mac) {
		return nil, fmt.Errorf("federation: client %v is not owned here", mac)
	}
	d := t.Domains[own]
	commit := &packet.DomainHandoffCommit{HandoffID: handoffID, Client: mac, ClientIP: d.owned[mac].ip}
	if s := d.ctl.ServingAP(mac); s >= 0 {
		if med, ok := d.ctl.MedianESNR(mac, s); ok {
			commit.Evidence = []packet.APESNR{{AP: d.city[s].IP, MedianQ: packet.QuantizeDB(med)}}
		}
	}
	d.release(commit)
	for _, o := range t.Domains {
		delete(o.owner, mac)
	}
	delete(t.owner, mac)
	return commit, nil
}

// Admit installs a client in every domain (Domain.Admit): the domain
// holding commit.TargetAP owns it, every other domain records that owner.
// Build admits each client present at time zero as an empty bundle at its
// first AP; a client entering through a metro seam carries its state in
// this tier's namespace. No pull follows — there is no old AP in this tier
// to stop.
func (t *Tier) Admit(commit *packet.DomainHandoffCommit) error {
	for _, d := range t.Domains {
		if err := d.Admit(commit); err != nil {
			return err
		}
	}
	t.owner[commit.Client] = t.Domains[0].owner[commit.Client]
	return nil
}

// SendDownlink hands one wired-side packet to the client's owning domain.
// During the ownership flip the packet lands on the adopting domain, which
// buffers it until the commit applies — no re-association gap.
func (t *Tier) SendDownlink(p *packet.Packet) error {
	own, ok := t.owner[p.ClientMAC]
	if !ok {
		return fmt.Errorf("federation: unknown client %v", p.ClientMAC)
	}
	return t.Domains[own].SendDownlink(p)
}

// ServingAP returns the id of the AP serving the client, or -1, consulting
// the owner first and then any domain with a pre-staged view.
func (t *Tier) ServingAP(mac packet.MACAddr) int {
	if own, ok := t.owner[mac]; ok {
		if s := t.Domains[own].ServingAP(mac); s >= 0 {
			return s
		}
	}
	for _, d := range t.Domains {
		if s := d.ServingAP(mac); s >= 0 {
			return s
		}
	}
	return -1
}

// TierStats aggregates the whole tier.
type TierStats struct {
	Fed Stats
	Ctl controller.Stats
}

// Stats sums federation and inner-controller counters across domains.
func (t *Tier) Stats() TierStats {
	var ts TierStats
	for _, d := range t.Domains {
		ts.Fed.Add(d.Stats)
		ts.Ctl.Add(d.Controller().Stats)
	}
	return ts
}
