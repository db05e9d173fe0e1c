package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"wgtt/internal/chaos"
	"wgtt/internal/mobility"
	"wgtt/internal/packet"
	"wgtt/internal/sim"
	"wgtt/internal/trace"
)

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Scenario{}); err == nil {
		t.Error("empty scenario accepted")
	}
}

// Past packet.MaxAPs APs or packet.MaxClients clients the address plan
// aliases nodes — AP 247 would take the controller's address, client 257
// client 1's — so Build refuses the scenario, naming the limit; at the
// limit it builds.
func TestBuildRejectsAliasedAddresses(t *testing.T) {
	s := TransitScenario(ModeWGTT, mobility.DenseArray(packet.MaxAPs+1, 5, 7.5), 15, 1)
	if _, err := Build(s); err == nil || !strings.Contains(err.Error(), fmt.Sprint(packet.MaxAPs)) {
		t.Errorf("%d APs: err = %v, want the %d-AP limit", packet.MaxAPs+1, err, packet.MaxAPs)
	}
	s = DriveScenario(ModeWGTT, 15, 1)
	for len(s.Clients) <= packet.MaxClients {
		s.Clients = append(s.Clients, s.Clients[0])
	}
	if _, err := Build(s); err == nil || !strings.Contains(err.Error(), fmt.Sprint(packet.MaxClients)) {
		t.Errorf("%d clients: err = %v, want the %d-client limit", packet.MaxClients+1, err, packet.MaxClients)
	}
	s = TransitScenario(ModeWGTT, mobility.DenseArray(packet.MaxAPs, 5, 7.5), 15, 1)
	n, err := Build(s)
	if err != nil {
		t.Fatalf("%d APs: %v", packet.MaxAPs, err)
	}
	seen := map[packet.IPv4Addr]int{packet.ControllerIP: -1}
	for i, a := range n.APs {
		if j, dup := seen[a.Config().IP]; dup {
			t.Fatalf("AP %d shares %v with node %d", i, a.Config().IP, j)
		}
		seen[a.Config().IP] = i
	}
}

func TestModeString(t *testing.T) {
	if ModeWGTT.String() != "wgtt" || ModeBaseline.String() != "enhanced-802.11r" {
		t.Error("mode names wrong")
	}
}

func TestDriveScenarioShapes(t *testing.T) {
	s := DriveScenario(ModeWGTT, 15, 1)
	if len(s.Clients) != 1 || s.Duration <= 0 {
		t.Fatal("drive scenario malformed")
	}
	static := DriveScenario(ModeWGTT, 0, 1)
	if tr := static.Clients[0].Trace; tr.Position(sim.Second) != tr.Position(0) {
		t.Error("0 mph scenario moves")
	}
	m := MultiClientScenario(ModeBaseline, mobility.Parallel, 3, 15, 2)
	if len(m.Clients) != 3 {
		t.Error("multi-client scenario wrong")
	}
}

// The headline end-to-end property (Fig. 13's mechanism): on the same
// 15 mph drive, WGTT sustains several times the baseline's UDP goodput,
// and switches APs far more often.
func TestWGTTBeatsBaselineUDP(t *testing.T) {
	run := func(mode Mode) (mbps float64, switches int) {
		s := DriveScenario(mode, 15, 42)
		n, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		// Paper-level offered load (50–90 Mb/s): this is where stranded
		// handover backlogs actually hurt the baseline.
		flow := n.AddDownlinkUDP(0, 50, 1400)
		flow.Sender.Start()
		n.Run()
		mbps = float64(flow.Receiver.Bytes) * 8 / 1e6 / s.Duration.Seconds()
		if mode == ModeWGTT {
			switches = len(n.Ctl.History)
		} else {
			switches = len(n.Base.Handovers)
		}
		return mbps, switches
	}
	wgttMbps, wgttSwitches := run(ModeWGTT)
	baseMbps, baseSwitches := run(ModeBaseline)

	t.Logf("UDP 15mph: wgtt %.2f Mb/s (%d switches) vs baseline %.2f Mb/s (%d handovers)",
		wgttMbps, wgttSwitches, baseMbps, baseSwitches)

	if wgttMbps < 10 {
		t.Errorf("WGTT goodput = %.2f Mb/s; system is not delivering", wgttMbps)
	}
	if wgttMbps < 1.5*baseMbps {
		t.Errorf("WGTT (%.2f) not clearly above baseline (%.2f)", wgttMbps, baseMbps)
	}
	if wgttSwitches < 10 {
		t.Errorf("WGTT switched only %d times across the array", wgttSwitches)
	}
	if baseSwitches > wgttSwitches {
		t.Errorf("baseline handed over more (%d) than WGTT switched (%d)", baseSwitches, wgttSwitches)
	}
}

func TestWGTTTCPDrive(t *testing.T) {
	s := DriveScenario(ModeWGTT, 15, 7)
	n, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	flow := n.AddDownlinkTCP(0, 0, nil)
	flow.Sender.Start()
	n.Run()
	mbps := float64(flow.Receiver.DeliveredBytes) * 8 / 1e6 / s.Duration.Seconds()
	t.Logf("TCP 15mph wgtt: %.2f Mb/s, %d rtx, %d timeouts",
		mbps, flow.Sender.Retransmits, flow.Sender.Timeouts)
	if mbps < 5 {
		t.Errorf("WGTT TCP goodput = %.2f Mb/s", mbps)
	}
	// The whole point: the WGTT flow survives the drive. A few timeouts at
	// the edges of the deployment (before the first and after the last AP)
	// are expected; a stall mid-drive would blow this bound.
	if flow.Sender.Timeouts > 15 {
		t.Errorf("WGTT TCP suffered %d timeouts", flow.Sender.Timeouts)
	}
}

func TestUplinkFlowAndDedup(t *testing.T) {
	s := DriveScenario(ModeWGTT, 15, 9)
	n, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	flow := n.AddUplinkUDP(0, 5, 1000)
	flow.Sender.Start()
	n.Run()
	loss := flow.Receiver.LossRate()
	t.Logf("uplink UDP: sent %d received %d loss %.4f", flow.Sender.Sent, flow.Receiver.Received, loss)
	if flow.Receiver.Received == 0 {
		t.Fatal("no uplink packets arrived")
	}
	// Multi-AP reception keeps uplink loss very low (Fig. 18: ≤ 0.02).
	if loss > 0.05 {
		t.Errorf("uplink loss = %.4f with diversity", loss)
	}
	uniq, dup := n.Ctl.ClientUplinkCounts(n.Clients[0].Config().MAC)
	if dup == 0 {
		t.Error("no duplicate uplink receptions — diversity not exercised")
	}
	if uniq == 0 {
		t.Error("no unique uplink packets")
	}
}

func TestGroundTruthOracle(t *testing.T) {
	s := DriveScenario(ModeWGTT, 15, 3)
	n, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	// As the client drives, the oracle's best AP should sweep from low
	// indices to high indices.
	early, _ := n.BestESNRAP(0, sim.Second)
	late, _ := n.BestESNRAP(0, s.Duration-2*sim.Second)
	if early > 3 {
		t.Errorf("early best AP = %d", early)
	}
	if late < 4 {
		t.Errorf("late best AP = %d", late)
	}
	if e := n.ClientESNR(0, early, sim.Second); e < 0 {
		t.Errorf("best-AP ESNR = %v dB at 1 s", e)
	}
}

func TestEverySampler(t *testing.T) {
	s := DriveScenario(ModeWGTT, 25, 5)
	s.Duration = 2 * sim.Second
	n, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	var ticks []sim.Time
	n.Every(100*sim.Millisecond, func(at sim.Time) { ticks = append(ticks, at) })
	n.Run()
	if len(ticks) < 18 || len(ticks) > 21 {
		t.Errorf("sampler fired %d times in 2 s at 100 ms", len(ticks))
	}
}

// The reproducibility claim: identical seeds produce byte-identical runs.
func TestDeterminism(t *testing.T) {
	run := func() (uint64, int, uint64) {
		s := DriveScenario(ModeWGTT, 15, 1234)
		s.Duration = 4 * sim.Second
		n, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		flow := n.AddDownlinkTCP(0, 0, nil)
		flow.Sender.Start()
		n.Run()
		return flow.Receiver.DeliveredBytes, len(n.Ctl.History), n.Eng.Fired()
	}
	b1, s1, e1 := run()
	b2, s2, e2 := run()
	if b1 != b2 || s1 != s2 || e1 != e2 {
		t.Errorf("same seed diverged: bytes %d/%d switches %d/%d events %d/%d",
			b1, b2, s1, s2, e1, e2)
	}
}

// Different seeds should not produce identical runs (the randomness is real).
func TestSeedsDiffer(t *testing.T) {
	run := func(seed uint64) uint64 {
		s := DriveScenario(ModeWGTT, 15, seed)
		s.Duration = 3 * sim.Second
		n, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		flow := n.AddDownlinkUDP(0, 20, 1400)
		flow.Sender.Start()
		n.Run()
		return flow.Receiver.Bytes
	}
	if run(1) == run(2) {
		t.Error("different seeds produced identical byte counts (suspicious)")
	}
}

// Multi-channel assembly invariants.
func TestMultiChannelBuild(t *testing.T) {
	s := DriveScenario(ModeWGTT, 15, 5)
	s.Channels = 3
	n, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Media) != 3 {
		t.Fatalf("media = %d", len(n.Media))
	}
	// APs round-robin over channels.
	for i := range n.APs {
		if n.apChannel[i] != i%3 {
			t.Errorf("AP%d on wrong channel", i)
		}
	}
	// Baseline cannot be multi-channel.
	sb := DriveScenario(ModeBaseline, 15, 5)
	sb.Channels = 2
	if _, err := Build(sb); err == nil {
		t.Error("baseline multi-channel accepted")
	}
}

// Control-loss injection keeps the system functional end to end.
func TestControlLossDrive(t *testing.T) {
	s := DriveScenario(ModeWGTT, 15, 6)
	s.Chaos = &chaos.Config{ControlLoss: 0.3}
	n, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	flow := n.AddDownlinkUDP(0, 20, 1400)
	flow.Sender.Start()
	n.Run()
	if n.Ctl.Stats.StopRetransmits == 0 {
		t.Error("control loss never triggered the 30 ms retransmission")
	}
	if n.Ctl.Stats.SwitchesDone < 5 {
		t.Errorf("only %d switches completed under control loss", n.Ctl.Stats.SwitchesDone)
	}
	if float64(flow.Receiver.Bytes)*8/1e6/s.Duration.Seconds() < 3 {
		t.Error("throughput collapsed under 30% control loss")
	}
}

// The trace recorder captures every event family during a real run.
func TestAttachRecorder(t *testing.T) {
	s := DriveScenario(ModeWGTT, 15, 8)
	s.Duration = 5 * sim.Second
	n, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	flow := n.AddDownlinkTCP(0, 0, nil)
	n.AttachRecorder(rec)
	flow.Sender.Start()
	n.Run()
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, kind := range []string{"deliver", "frame-tx", "switch", "uplink"} {
		if !strings.Contains(out, `"kind":"`+kind+`"`) {
			t.Errorf("trace missing %q events", kind)
		}
	}
	if rec.N < 100 {
		t.Errorf("only %d events traced", rec.N)
	}
}
