package core

import (
	"cmp"
	"slices"
	"testing"

	"wgtt/internal/controller"
	"wgtt/internal/federation"
	"wgtt/internal/packet"
)

// TestSwitchLedgerChains holds the one switch ledger's invariant on the
// paper's controller, the federated tier and the 802.11r baseline alike:
// per client, the records ordered by At chain — each From is the previous
// record's To, the first From is the AP the client was admitted at — which
// is what an A→B→A (ping-pong) count over []controller.SwitchRecord reads.
func TestSwitchLedgerChains(t *testing.T) {
	t.Run("wgtt", func(t *testing.T) {
		n := runDrive(t, ModeWGTT, 1)
		chains(t, n, n.Ctl.History)
	})
	t.Run("baseline", func(t *testing.T) {
		n := runDrive(t, ModeBaseline, 1)
		for _, rec := range n.Base.Handovers {
			if rec.Duration != 0 || rec.Attempts != 0 || rec.Forced {
				t.Errorf("roam %+v carries §3.1.2 handshake fields", rec)
			}
		}
		chains(t, n, n.Base.Handovers)
	})
	t.Run("federated", func(t *testing.T) {
		n := runDrive(t, ModeWGTT, 2)
		city := federation.City(len(n.APs), 2)
		var recs []controller.SwitchRecord
		for dom, d := range n.Fed.Domains {
			recs = append(recs, d.Controller().History...)
			recs = append(recs, d.Adopted...)
			for _, rec := range d.Adopted {
				if rec.From >= 0 && city[rec.From].Domain == dom || city[rec.To].Domain != dom {
					t.Errorf("domain %d adopted ap%d -> ap%d: want a foreign From and one of its own APs as To",
						dom, rec.From+1, rec.To+1)
				}
			}
			for _, took := range d.Offered {
				if took <= 0 {
					t.Errorf("domain %d committed an offer after %v", dom, took)
				}
			}
		}
		if fs := n.FedStats(); len(n.Fed.Domains[1].Adopted) == 0 || uint64(len(n.Fed.Domains[0].Offered)) != fs.Commits {
			t.Fatalf("adopted %d, offered %d, commits %d: the drive never crossed domains",
				len(n.Fed.Domains[1].Adopted), len(n.Fed.Domains[0].Offered), fs.Commits)
		}
		slices.SortStableFunc(recs, func(a, b controller.SwitchRecord) int { return cmp.Compare(a.At, b.At) })
		chains(t, n, recs)
	})
}

// runDrive runs the 15 mph single-client drive to completion.
func runDrive(t *testing.T, mode Mode, domains int) *Network {
	t.Helper()
	s := DriveScenario(mode, 15, 42)
	s.Domains = domains
	n, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	return n
}

// chains checks that each client's records, in the order given, move it
// from the AP it was admitted at through a connected sequence of APs.
func chains(t *testing.T, n *Network, recs []controller.SwitchRecord) {
	t.Helper()
	if len(recs) == 0 {
		t.Fatal("the drive recorded no switch")
	}
	t.Logf("%d records", len(recs))
	at := map[packet.MACAddr]int{}
	for i, cl := range n.Clients {
		at[cl.Config().MAC] = n.NearestAPTo(n.Scenario.Clients[i].Trace.Position(0))
	}
	for _, rec := range recs {
		prev, ok := at[rec.Client]
		if !ok || rec.From != prev || rec.To == rec.From {
			t.Fatalf("record %+v does not continue from ap%d", rec, prev+1)
		}
		at[rec.Client] = rec.To
	}
}
