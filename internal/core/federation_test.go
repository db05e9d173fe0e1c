package core

import (
	"testing"

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
// and goodput survives the ownership transfer.
func TestFederatedDriveHandsOff(t *testing.T) {
	s := DriveScenario(ModeWGTT, 15, 42)
	s.Domains = 2
	n, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	flow := n.AddDownlinkUDP(0, 20, 1400)
	flow.Sender.Start()
	n.Run()

	fs := n.FedStats()
	cs := n.CtlStats()
	mbps := float64(flow.Receiver.Bytes) * 8 / 1e6 / s.Duration.Seconds()
	t.Logf("federated 15mph: %.2f Mb/s, %d intra switches, %d cross switches, %d offers, %d aborts",
		mbps, cs.SwitchesDone, fs.CrossSwitches, fs.OffersSent, fs.Aborts)

	if fs.CrossSwitches < 1 {
		t.Fatalf("no cross-domain switch completed (offers=%d aborts=%d)", fs.OffersSent, fs.Aborts)
	}
	if fs.Adoptions != fs.CrossSwitches {
		t.Errorf("adoptions (%d) != cross switches (%d)", fs.Adoptions, fs.CrossSwitches)
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

// Domains: 1 is byte-identical to the unfederated build — the federation
// layer must be a strict no-op until a second domain exists.
func TestFederatedSingleDomainIdentical(t *testing.T) {
	run := func(domains int) (uint64, uint64) {
		s := DriveScenario(ModeWGTT, 15, 77)
		s.Duration = 4 * sim.Second
		s.Domains = domains
		n, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		flow := n.AddDownlinkUDP(0, 20, 1400)
		flow.Sender.Start()
		n.Run()
		return flow.Receiver.Bytes, n.Eng.Fired()
	}
	b0, e0 := run(0)
	b1, e1 := run(1)
	if b0 != b1 || e0 != e1 {
		t.Errorf("Domains:1 diverged from unfederated: bytes %d/%d events %d/%d", b0, b1, e0, e1)
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
		return flow.Receiver.Bytes, n.FedStats().CrossSwitches, n.Eng.Fired()
	}
	b1, c1, e1 := run()
	b2, c2, e2 := run()
	if b1 != b2 || c1 != c2 || e1 != e2 {
		t.Errorf("federated run diverged: bytes %d/%d cross %d/%d events %d/%d",
			b1, b2, c1, c2, e1, e2)
	}
}
