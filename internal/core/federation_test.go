package core

import (
	"testing"

	"wgtt/internal/federation"
	"wgtt/internal/metrics"
	"wgtt/internal/packet"
	"wgtt/internal/sim"
)

// Federated assembly invariants (DESIGN.md §13).
func TestFederatedBuildValidation(t *testing.T) {
	s := DriveScenario(ModeBaseline, 15, 1)
	s.Domains = 2
	if _, err := Build(s); err == nil {
		t.Error("baseline federation accepted")
	}
	s = DriveScenario(ModeWGTT, 15, 1)
	s.Domains = 2
	s.Channels = 2
	if _, err := Build(s); err == nil {
		t.Error("multi-channel federation accepted")
	}
	s = DriveScenario(ModeWGTT, 15, 1)
	s.Domains = 99
	if _, err := Build(s); err == nil {
		t.Error("more domains than APs accepted")
	}
}

// A 15 mph drive across a 2-domain city completes the inter-controller
// handoff: the owner flips, the drive keeps switching on the new domain,
// and goodput survives the ownership transfer. Every AP the tier names is
// named by its city id (oneNamespace).
func TestFederatedDriveHandsOff(t *testing.T) {
	s := DriveScenario(ModeWGTT, 15, 42)
	s.Domains = 2
	n, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	reg := n.EnableMetrics()
	flow := n.AddDownlinkUDP(0, 20, 1400)
	flow.Sender.Start()
	n.Run()
	holds(t, n)
	oneNamespace(t, n, federation.City(len(n.APs), s.Domains), reg.Snapshot())

	fs := n.FedStats()
	cs := n.CtlStats()
	cross := n.Fed.CrossSwitches()
	mbps := float64(flow.Receiver.Bytes) * 8 / 1e6 / s.Duration.Seconds()
	t.Logf("federated 15mph: %.2f Mb/s, %d intra switches, %d cross switches, %d offers, %d aborts",
		mbps, cs.SwitchesDone, cross, fs.OffersSent, fs.Aborts)

	if cross < 1 {
		t.Fatalf("no cross-domain switch completed (offers=%d aborts=%d)", fs.OffersSent, fs.Aborts)
	}
	if fs.Adoptions != cross {
		t.Errorf("adoptions (%d) != cross switches (%d)", fs.Adoptions, cross)
	}
	mac := n.Clients[0].Config().MAC
	if !n.Fed.Domains[s.Domains-1].Owns(mac) {
		t.Errorf("drive did not end owned by domain %d", s.Domains-1)
	}
	if cs.SwitchesDone < 5 {
		t.Errorf("only %d intra-domain switches across the array", cs.SwitchesDone)
	}
	if mbps < 5 {
		t.Errorf("federated goodput = %.2f Mb/s", mbps)
	}
}

// oneNamespace asserts that each record on a domain's inner ledger, and
// each switch span, names APs the city table gives the domain that recorded
// it. A span's recorder minted its id (id >> 24) — except a cross-domain
// pull's, which the adopter records under the offerer's handoff id: its
// From is the offerer's AP and its To another domain's.
func oneNamespace(t *testing.T, n *Network, city []federation.APAssignment, snap metrics.Snapshot) {
	t.Helper()
	owner := func(ap int) int {
		if ap < 0 || ap >= len(city) {
			return -1
		}
		return city[ap].Domain
	}
	later := 0
	for dom, d := range n.Fed.Domains {
		for _, rec := range d.Controller().History {
			if owner(rec.From) != dom || owner(rec.To) != dom {
				t.Errorf("domain %d's ledger: switch ap%d -> ap%d names another domain's AP", dom, rec.From+1, rec.To+1)
			}
			if dom > 0 {
				later++
			}
		}
	}
	if later == 0 {
		t.Error("no switch on a later domain's ledger: the namespace went unexercised")
	}
	for _, sp := range snap.Spans {
		if sp.Tracker != "" && sp.Tracker != metrics.SwitchSpanTracker {
			continue
		}
		dom := int(sp.ID >> 24)
		pull := sp.Cause == metrics.CauseDomainHandoff
		if (sp.From >= 0 && owner(sp.From) != dom) || (owner(sp.To) == dom) == pull {
			t.Errorf("switch span %#x (%s): ap%d -> ap%d, minted by domain %d", sp.ID, sp.Cause, sp.From+1, sp.To+1, dom)
		}
	}
}

// Same seed, same federated scenario, byte-identical runs.
func TestFederatedDeterminism(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		s := DriveScenario(ModeWGTT, 15, 1234)
		s.Domains = 2
		n, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		flow := n.AddDownlinkUDP(0, 20, 1400)
		flow.Sender.Start()
		n.Run()
		holds(t, n)
		return flow.Receiver.Bytes, n.Fed.CrossSwitches(), n.Eng.Fired()
	}
	b1, c1, e1 := run()
	b2, c2, e2 := run()
	if b1 != b2 || c1 != c2 || e1 != e2 {
		t.Errorf("federated run diverged: bytes %d/%d cross %d/%d events %d/%d",
			b1, b2, c1, c2, e1, e2)
	}
}

// The metro seam runs through the tier (DESIGN.md §17). Export leaves the
// client with no owner: no serving AP, no downlink path. Admission takes a
// commit named in the exporting cell's namespace — its client, its evidence
// AP — translates both to this cell's client and entry AP, and resumes the
// carried state there without counting a federation handoff: the entry AP
// serves, holds the evidence, and the next downlink lands in its ring.
func TestCellHandoffThroughTier(t *testing.T) {
	n, err := Build(DriveScenario(ModeWGTT, 15, 5))
	if err != nil {
		t.Fatal(err)
	}
	n.RunUntil(500 * sim.Millisecond)
	commit, err := n.ExportCellHandoff(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s := n.ServingAP(0); s != -1 {
		t.Fatalf("exported client still served by AP %d", s)
	}
	if err := n.SendDownlink(0, &packet.Packet{Bytes: 1400}); err == nil {
		t.Fatal("downlink to an exported client accepted")
	}
	if len(commit.Evidence) == 0 {
		t.Fatal("export carried no serving-AP evidence")
	}

	// Another cell's names for the client and its evidence AP.
	commit.Client, commit.ClientIP = packet.ClientMAC(99), packet.ClientIP(99)
	commit.Evidence[0].AP = packet.APIP(99)
	entry := len(n.APs) - 1
	mac := n.Clients[0].Config().MAC
	before := n.APs[entry].Stats.DownEnqueued
	if err := n.AdmitCellHandoff(0, entry, commit); err != nil {
		t.Fatal(err)
	}
	if s := n.ServingAP(0); s != entry {
		t.Fatalf("admitted client served by AP %d, want entry AP %d", s, entry)
	}
	if _, ok := n.Ctl.MedianESNR(mac, entry); !ok {
		t.Error("the carried evidence did not warm the entry AP's window")
	}
	if fs := n.FedStats(); fs != (federation.Stats{}) {
		t.Errorf("a seam admission counted as a federation handoff: %+v", fs)
	}
	if err := n.SendDownlink(0, &packet.Packet{Bytes: 1400}); err != nil {
		t.Fatal(err)
	}
	n.RunUntil(n.Eng.Now() + 5*sim.Millisecond)
	if n.APs[entry].Stats.DownEnqueued == before {
		t.Error("the downlink never reached the entry AP's ring")
	}
}

// A lone domain hands nothing off, so a one-domain network's metrics carry
// no federation component; a second domain brings it.
func TestSingleDomainHasNoFederationMetrics(t *testing.T) {
	for _, domains := range []int{1, 2} {
		s := DriveScenario(ModeWGTT, 15, 3)
		s.Duration = sim.Second
		s.Domains = domains
		n, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		r := n.EnableMetrics()
		n.Run()
		holds(t, n)
		fed := 0
		for _, c := range r.Snapshot().Counters {
			if c.Component == "federation" {
				fed++
			}
		}
		if got := fed > 0; got != (domains > 1) {
			t.Errorf("%d domain(s): %d federation counters", domains, fed)
		}
	}
}
