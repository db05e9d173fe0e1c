package core

import "testing"

// TestFanoutCopiesPinned is the end-to-end fan-out accounting pin: the
// incremental relevance set (internal/controller/fanout.go) must reproduce
// the retired per-packet O(#APs) scan's fan-out decisions exactly. These
// constants were captured by running the identical scenarios on the scan
// implementation; any drift in DownlinkCopies or delivered datagrams means
// the fast path changed which APs replicate a client's downlink.
func TestFanoutCopiesPinned(t *testing.T) {
	cases := []struct {
		seed         uint64
		sent, copies uint64
		received     uint64
	}{
		{seed: 7, sent: 6004, copies: 14817, received: 4371},
		{seed: 11, sent: 6004, copies: 14314, received: 4578},
	}
	for _, tc := range cases {
		n, err := Build(DriveScenario(ModeWGTT, 25, tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		flow := n.AddDownlinkUDP(0, 6, 1200)
		flow.Sender.Start()
		n.Run()
		st := n.CtlStats()
		if st.DownlinkSent != tc.sent || st.DownlinkCopies != tc.copies ||
			flow.Receiver.Received != tc.received {
			t.Errorf("seed %d: sent/copies/received = %d/%d/%d, want %d/%d/%d (pre-relevance-set baseline)",
				tc.seed, st.DownlinkSent, st.DownlinkCopies, flow.Receiver.Received,
				tc.sent, tc.copies, tc.received)
		}
	}
}
