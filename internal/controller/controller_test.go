package controller

import (
	"testing"

	"wgtt/internal/backhaul"
	"wgtt/internal/metrics"
	"wgtt/internal/packet"
	"wgtt/internal/sim"
)

// --- integrated controller harness over a backhaul with scripted APs ---

type fakeAP struct {
	id      int
	eng     *sim.Engine
	bh      *backhaul.Switch
	ip      packet.IPv4Addr
	stops   []*packet.Stop
	starts  []*packet.Start
	downs   []*packet.DownData
	probes  []*packet.HealthProbe
	ackStop bool // respond to stop by emitting start at the next AP
	dead    bool // crashed: ignore every backhaul message
}

func (f *fakeAP) HandleBackhaul(from packet.IPv4Addr, msg packet.Message) {
	if f.dead {
		return
	}
	switch m := msg.(type) {
	case *packet.HealthProbe:
		f.probes = append(f.probes, m)
		_ = f.bh.Send(f.ip, packet.ControllerIP, &packet.HealthAck{AP: f.ip, Seq: m.Seq, At: m.At})
	case *packet.Stop:
		f.stops = append(f.stops, m)
		if f.ackStop {
			_ = f.bh.Send(f.ip, m.NextAP, &packet.Start{Client: m.Client, Index: 42, SwitchID: m.SwitchID})
		}
	case *packet.Start:
		f.starts = append(f.starts, m)
		_ = f.bh.Send(f.ip, packet.ControllerIP, &packet.SwitchAck{Client: m.Client, AP: f.ip, SwitchID: m.SwitchID})
	case *packet.DownData:
		cp := *m // the envelope is the switch's again after the call
		f.downs = append(f.downs, &cp)
	}
}

type ctlHarness struct {
	eng  *sim.Engine
	bh   *backhaul.Switch
	ctl  *Controller
	aps  []*fakeAP
	macs packet.MACAddr
}

func newCtlHarness(t *testing.T, nAPs int, cfg Config) *ctlHarness {
	t.Helper()
	eng := sim.NewEngine()
	bh := backhaul.NewSwitch(eng, 200*sim.Microsecond)
	infos := make([]APInfo, nAPs)
	aps := make([]*fakeAP, nAPs)
	for i := 0; i < nAPs; i++ {
		infos[i] = APInfo{ID: i, IP: packet.APIP(i), MAC: packet.APMAC(i)}
		aps[i] = &fakeAP{id: i, eng: eng, bh: bh, ip: packet.APIP(i), ackStop: true}
		bh.Attach(packet.APIP(i), aps[i])
	}
	ctl := New(cfg, eng, bh, infos)
	return &ctlHarness{eng: eng, bh: bh, ctl: ctl, aps: aps}
}

func csiReport(client packet.MACAddr, ap int, at sim.Time, esnrDB float64) *packet.CSIReport {
	rep := &packet.CSIReport{Client: client, AP: packet.APIP(ap), At: int64(at)}
	snr := make([]float64, packet.CSISubcarriers)
	for i := range snr {
		snr[i] = esnrDB
	}
	rep.QuantizeSNR(snr)
	return rep
}

func (h *ctlHarness) feedCSI(client packet.MACAddr, ap int, esnrDB float64) {
	at := h.eng.Now()
	_ = h.bh.Send(packet.APIP(ap), packet.ControllerIP, csiReport(client, ap, at, esnrDB))
}

// The default is the paper's §3.1.1/§3.1.2 operating point with the health
// monitor off — what live mode runs, where there are no failures to detect
// and probe traffic would only add noise.
func TestDefaultConfigHealthOff(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Window != 10*sim.Millisecond || cfg.Hysteresis != 40*sim.Millisecond {
		t.Fatalf("default diverged from the paper operating point: %+v", cfg)
	}
	if cfg.health {
		t.Fatal("health monitor must be off by default")
	}
}

func TestSelectionSwitchesToBestMedian(t *testing.T) {
	h := newCtlHarness(t, 3, DefaultConfig())
	client := packet.ClientMAC(1)
	h.ctl.RegisterClient(client, packet.ClientIP(1), 0)

	// AP0 fading, AP2 strong: CSI keeps arriving (as it does on a live
	// link) until the hysteresis dwell has passed and the switch completes.
	for i := 0; i < 60; i++ {
		h.feedCSI(client, 0, 8)
		h.feedCSI(client, 2, 20)
		h.eng.RunUntil(h.eng.Now() + 2*sim.Millisecond)
	}
	h.eng.RunUntil(h.eng.Now() + 100*sim.Millisecond)

	if got := h.ctl.ServingAP(client); got != 2 {
		t.Fatalf("serving AP = %d, want 2", got)
	}
	if len(h.aps[0].stops) == 0 {
		t.Error("old AP never received stop")
	}
	if len(h.aps[2].starts) == 0 {
		t.Error("new AP never received start")
	}
	if h.ctl.Stats.SwitchesDone != 1 {
		t.Errorf("switches done = %d", h.ctl.Stats.SwitchesDone)
	}
	rec := h.ctl.History[0]
	if rec.From != 0 || rec.To != 2 || rec.Duration <= 0 {
		t.Errorf("switch record = %+v", rec)
	}
}

func TestHysteresisBlocksFlapping(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hysteresis = 500 * sim.Millisecond
	h := newCtlHarness(t, 2, cfg)
	client := packet.ClientMAC(1)
	h.ctl.RegisterClient(client, packet.ClientIP(1), 0)

	// Flip-flop the better AP every few ms for 300 ms.
	for i := 0; i < 30; i++ {
		better := i % 2
		h.feedCSI(client, better, 25)
		h.feedCSI(client, 1-better, 5)
		h.eng.RunUntil(h.eng.Now() + 10*sim.Millisecond)
	}
	if h.ctl.Stats.SwitchesDone > 1 {
		t.Errorf("hysteresis allowed %d switches in 300 ms", h.ctl.Stats.SwitchesDone)
	}
}

func TestSingleOutstandingSwitch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hysteresis = 0
	h := newCtlHarness(t, 3, cfg)
	// AP0 never acks: its starts go to an AP that does, but we silence the
	// target AP too to keep the op in flight.
	h.aps[0].ackStop = false
	client := packet.ClientMAC(1)
	h.ctl.RegisterClient(client, packet.ClientIP(1), 0)

	for i := 0; i < 10; i++ {
		h.feedCSI(client, 1, 20)
		h.feedCSI(client, 2, 25)
		h.eng.RunUntil(h.eng.Now() + 2*sim.Millisecond)
	}
	if h.ctl.Stats.SwitchesStarted != 1 {
		t.Errorf("switches started = %d, want 1 (single outstanding)", h.ctl.Stats.SwitchesStarted)
	}
}

func TestStopRetransmitOnTimeout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hysteresis = 0
	h := newCtlHarness(t, 2, cfg)
	h.aps[0].ackStop = false // black-hole the switch
	client := packet.ClientMAC(1)
	h.ctl.RegisterClient(client, packet.ClientIP(1), 0)

	// Several reports so AP1's window passes the MinSamples gate.
	for i := 0; i < 4; i++ {
		h.feedCSI(client, 1, 25)
		h.feedCSI(client, 0, 5)
		h.eng.RunUntil(h.eng.Now() + sim.Millisecond)
	}
	h.eng.RunUntil(200 * sim.Millisecond)

	// 30 ms timeout ⇒ roughly 6 retransmissions in 200 ms.
	if h.ctl.Stats.StopRetransmits < 3 {
		t.Errorf("stop retransmits = %d, want several", h.ctl.Stats.StopRetransmits)
	}
	if got := len(h.aps[0].stops); got < 4 {
		t.Errorf("AP0 saw %d stops", got)
	}
	if h.ctl.ServingAP(client) != 0 {
		t.Error("switch completed without an ack")
	}
}

func TestSwitchAckIgnoredWhenStale(t *testing.T) {
	h := newCtlHarness(t, 2, DefaultConfig())
	client := packet.ClientMAC(1)
	h.ctl.RegisterClient(client, packet.ClientIP(1), 0)
	// Unsolicited ack with a bogus switch ID must be ignored.
	_ = h.bh.Send(packet.APIP(1), packet.ControllerIP,
		&packet.SwitchAck{Client: client, AP: packet.APIP(1), SwitchID: 999})
	h.eng.Run()
	if h.ctl.ServingAP(client) != 0 || h.ctl.Stats.SwitchesDone != 0 {
		t.Error("stale ack mutated switch state")
	}
}

func TestDownlinkFanout(t *testing.T) {
	h := newCtlHarness(t, 4, DefaultConfig())
	client := packet.ClientMAC(1)
	h.ctl.RegisterClient(client, packet.ClientIP(1), 0)

	// Only APs 0 and 1 have heard the client recently.
	h.feedCSI(client, 0, 15)
	h.feedCSI(client, 1, 18)
	h.eng.RunUntil(5 * sim.Millisecond)

	p := &packet.Packet{ClientMAC: client, Bytes: 1500, SrcIP: packet.IPv4Addr{1, 2, 3, 4}}
	if err := h.ctl.SendDownlink(p); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()

	if len(h.aps[0].downs) != 1 || len(h.aps[1].downs) != 1 {
		t.Error("recently-heard APs did not receive the packet")
	}
	if len(h.aps[3].downs) != 0 {
		t.Error("never-heard AP received a copy")
	}
	// Indices allocate sequentially from 0.
	if h.aps[0].downs[0].Pkt.Index != 0 {
		t.Errorf("first index = %d", h.aps[0].downs[0].Pkt.Index)
	}
	p2 := &packet.Packet{ClientMAC: client, Bytes: 1500}
	_ = h.ctl.SendDownlink(p2)
	h.eng.Run()
	if h.aps[0].downs[1].Pkt.Index != 1 {
		t.Errorf("second index = %d", h.aps[0].downs[1].Pkt.Index)
	}
}

func TestDownlinkFanoutFallbackAll(t *testing.T) {
	h := newCtlHarness(t, 3, DefaultConfig())
	client := packet.ClientMAC(1)
	h.ctl.RegisterClient(client, packet.ClientIP(1), 0)
	// No CSI at all: every AP gets a copy (bootstrap).
	_ = h.ctl.SendDownlink(&packet.Packet{ClientMAC: client, Bytes: 100})
	h.eng.Run()
	for i, ap := range h.aps {
		if len(ap.downs) != 1 {
			t.Errorf("AP%d got %d copies during bootstrap", i, len(ap.downs))
		}
	}
}

func TestDownlinkUnknownClient(t *testing.T) {
	h := newCtlHarness(t, 1, DefaultConfig())
	if err := h.ctl.SendDownlink(&packet.Packet{ClientMAC: packet.ClientMAC(9)}); err == nil {
		t.Error("unknown client accepted")
	}
}

func TestUplinkDedup(t *testing.T) {
	h := newCtlHarness(t, 2, DefaultConfig())
	client := packet.ClientMAC(1)
	h.ctl.RegisterClient(client, packet.ClientIP(1), 0)
	var delivered []*packet.Packet
	h.ctl.DeliverUplink = func(p *packet.Packet, _ sim.Time) { delivered = append(delivered, p) }

	mk := func(ipid uint16) *packet.Packet {
		return &packet.Packet{
			ClientMAC: client, SrcIP: packet.ClientIP(1), IPID: ipid, Uplink: true, Bytes: 200,
		}
	}
	// Same packet heard by both APs; a second distinct packet by one.
	_ = h.bh.Send(packet.APIP(0), packet.ControllerIP, &packet.UpData{APSrc: packet.APIP(0), Pkt: mk(7)})
	_ = h.bh.Send(packet.APIP(1), packet.ControllerIP, &packet.UpData{APSrc: packet.APIP(1), Pkt: mk(7)})
	_ = h.bh.Send(packet.APIP(0), packet.ControllerIP, &packet.UpData{APSrc: packet.APIP(0), Pkt: mk(8)})
	h.eng.Run()

	if len(delivered) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(delivered))
	}
	uniq, dup := h.ctl.ClientUplinkCounts(client)
	if uniq != 2 || dup != 1 {
		t.Errorf("counts = %d unique, %d dup", uniq, dup)
	}
}

func TestUplinkDedupEviction(t *testing.T) {
	h := newCtlHarness(t, 1, DefaultConfig())
	client := packet.ClientMAC(1)
	h.ctl.RegisterClient(client, packet.ClientIP(1), 0)
	n := 0
	h.ctl.DeliverUplink = func(*packet.Packet, sim.Time) { n++ }
	for i := 0; i <= dedupCapacity; i++ {
		p := &packet.Packet{ClientMAC: client, SrcIP: packet.ClientIP(1), IPID: uint16(i)}
		_ = h.bh.Send(packet.APIP(0), packet.ControllerIP, &packet.UpData{APSrc: packet.APIP(0), Pkt: p})
	}
	h.eng.Run()
	// Key 0 was evicted by the one past capacity; replaying it is "new" again.
	p := &packet.Packet{ClientMAC: client, SrcIP: packet.ClientIP(1), IPID: 0}
	_ = h.bh.Send(packet.APIP(0), packet.ControllerIP, &packet.UpData{APSrc: packet.APIP(0), Pkt: p})
	h.eng.Run()
	if n != dedupCapacity+2 {
		t.Errorf("delivered %d, want %d (bounded memory re-admits evicted keys)", n, dedupCapacity+2)
	}
}

func TestMedianESNRAccessor(t *testing.T) {
	h := newCtlHarness(t, 2, DefaultConfig())
	client := packet.ClientMAC(1)
	h.ctl.RegisterClient(client, packet.ClientIP(1), 0)
	if _, ok := h.ctl.MedianESNR(client, 0); ok {
		t.Error("median reported before any CSI")
	}
	h.feedCSI(client, 0, 17)
	h.eng.Run()
	med, ok := h.ctl.MedianESNR(client, 0)
	if !ok || med < 15 || med > 19 {
		t.Errorf("median = %v, %v (fed 17 dB flat)", med, ok)
	}
	if _, ok := h.ctl.MedianESNR(packet.ClientMAC(9), 0); ok {
		t.Error("median for unknown client")
	}
}

// A CSI report naming an AP this controller does not command is dropped: it
// is evidence for none of ours, least of all AP 0.
func TestCSIFromUnknownAPDropped(t *testing.T) {
	h := newCtlHarness(t, 2, DefaultConfig())
	client := packet.ClientMAC(1)
	h.ctl.RegisterClient(client, packet.ClientIP(1), 0)
	_ = h.bh.Send(packet.APIP(1), packet.ControllerIP, csiReport(client, 7, h.eng.Now(), 17))
	h.eng.Run()
	if h.ctl.Stats.CSIReports != 0 {
		t.Errorf("counted %d CSI reports from an unknown AP", h.ctl.Stats.CSIReports)
	}
	if med, ok := h.ctl.MedianESNR(client, 0); ok {
		t.Errorf("unknown AP's report booked on AP 0: median %v dB", med)
	}
}

// --- AP health monitor & forced failover (DESIGN.md §11) ---

// run advances the engine in 2 ms steps for steps iterations, feeding CSI
// for the client from every AP in feed each step (dead APs are silent).
func (h *ctlHarness) runFeeding(client packet.MACAddr, steps int, feed map[int]float64) {
	for i := 0; i < steps; i++ {
		for id := 0; id < len(h.aps); id++ {
			if db, ok := feed[id]; ok && !h.aps[id].dead {
				h.feedCSI(client, id, db)
			}
		}
		h.eng.RunUntil(h.eng.Now() + 2*sim.Millisecond)
	}
}

func TestHealthMonitorDetectsDeadAPAndForcesFailover(t *testing.T) {
	cfg := DefaultConfig().WithHealth()
	cfg.MinSwitchESNRdB = 50 // block selection switches: only failover may move the client
	h := newCtlHarness(t, 2, cfg)
	reg := metrics.NewRegistry()
	h.ctl.UseMetrics(reg)
	client := packet.ClientMAC(1)
	h.ctl.RegisterClient(client, packet.ClientIP(1), 0)

	h.runFeeding(client, 25, map[int]float64{0: 20, 1: 12})
	if got := h.ctl.ServingAP(client); got != 0 {
		t.Fatalf("serving = %d before the crash, want 0", got)
	}

	h.aps[0].dead = true
	crashAt := h.eng.Now()
	h.runFeeding(client, 100, map[int]float64{1: 12})

	st := h.ctl.Stats
	if st.APsMarkedDead != 1 {
		t.Fatalf("APsMarkedDead = %d, want 1", st.APsMarkedDead)
	}
	if st.ForcedSwitches != 1 || st.SwitchesStarted != 1 {
		t.Fatalf("ForcedSwitches = %d, SwitchesStarted = %d, want 1, 1", st.ForcedSwitches, st.SwitchesStarted)
	}
	if st.HealthProbes == 0 {
		t.Error("no health probes sent to the silent AP")
	}
	if got := h.ctl.ServingAP(client); got != 1 {
		t.Fatalf("serving = %d after failover, want 1", got)
	}
	if len(h.aps[0].stops) != 0 {
		t.Errorf("dead AP received %d stops; failover must use a direct start", len(h.aps[0].stops))
	}
	if len(h.aps[1].starts) == 0 {
		t.Fatal("failover target received no start")
	}
	if len(h.ctl.History) != 1 {
		t.Fatalf("History has %d records, want 1", len(h.ctl.History))
	}
	rec := h.ctl.History[0]
	if !rec.Forced || rec.From != 0 || rec.To != 1 {
		t.Errorf("record = %+v, want a forced 0→1 switch", rec)
	}
	// Outage bound: detection fires within DetectTimeout plus one health
	// tick of scan granularity; the direct start adds two backhaul hops.
	bound := DetectTimeout + HealthInterval + 5*sim.Millisecond
	if gap := rec.At - crashAt; gap > bound {
		t.Errorf("failover completed %v after the crash, want ≤ %v", gap, bound)
	}

	// The incident's recovery span is in the snapshot, completed, and
	// separate from the switch-protocol stream.
	snap := reg.Snapshot()
	var recov, forced int
	for _, sp := range snap.Spans {
		switch sp.Tracker {
		case metrics.RecoverySpanTracker:
			recov++
			if sp.Cause != metrics.CauseAPFailure || !sp.Completed {
				t.Errorf("recovery span = %+v, want completed %s", sp, metrics.CauseAPFailure)
			}
			if sp.StartHandledNS == 0 || sp.EndNS < sp.StartHandledNS {
				t.Errorf("recovery span timeline detect=%d reselect=%d ack=%d out of order",
					sp.StartNS, sp.StartHandledNS, sp.EndNS)
			}
		case "":
			if sp.Cause == metrics.CauseFailover {
				forced++
			}
		}
	}
	if recov != 1 || forced != 1 {
		t.Errorf("snapshot has %d recovery spans and %d failover switch spans, want 1 and 1", recov, forced)
	}
}

// Regression (DESIGN.md §11): when an AP dies while a switch handshake is
// already in flight toward the AP failover would also pick, the controller
// must escalate that same op to a direct start — same SwitchID — and must
// not initiate a second switch toward that AP.
func TestFailoverMidSwitchEscalatesSameOp(t *testing.T) {
	cfg := DefaultConfig().WithHealth()
	h := newCtlHarness(t, 2, cfg)
	client := packet.ClientMAC(1)
	h.ctl.RegisterClient(client, packet.ClientIP(1), 0)

	h.runFeeding(client, 30, map[int]float64{0: 20, 1: 8})
	if got := h.ctl.ServingAP(client); got != 0 {
		t.Fatalf("serving = %d, want 0", got)
	}

	// AP0 crashes; AP1 immediately looks better, so the §3.1.1 rule opens
	// a normal stop→start handshake toward AP1 before detection fires. The
	// stop goes to the dead AP0 and is never answered.
	h.aps[0].dead = true
	h.runFeeding(client, 120, map[int]float64{1: 25})

	st := h.ctl.Stats
	if st.SwitchesStarted != 1 {
		t.Fatalf("SwitchesStarted = %d, want exactly 1 (escalation must reuse the in-flight op)", st.SwitchesStarted)
	}
	if st.ForcedSwitches != 1 {
		t.Fatalf("ForcedSwitches = %d, want 1", st.ForcedSwitches)
	}
	if st.SwitchesDone != 1 {
		t.Fatalf("SwitchesDone = %d, want 1", st.SwitchesDone)
	}
	if st.StopRetransmits == 0 {
		t.Error("expected stop retransmissions toward the dead AP before escalation")
	}
	if got := h.ctl.ServingAP(client); got != 1 {
		t.Fatalf("serving = %d, want 1", got)
	}
	if len(h.aps[1].starts) == 0 {
		t.Fatal("escalated op sent no direct start")
	}
	wantID := h.aps[1].starts[0].SwitchID
	for _, s := range h.aps[1].starts {
		if s.SwitchID != wantID {
			t.Fatalf("start carries SwitchID %d, want %d (a second switch op was opened)", s.SwitchID, wantID)
		}
	}
	if len(h.ctl.History) != 1 || !h.ctl.History[0].Forced {
		t.Fatalf("History = %+v, want one forced record", h.ctl.History)
	}
}

func TestDeadAPExcludedFromFanoutAndReadmitted(t *testing.T) {
	cfg := DefaultConfig().WithHealth()
	cfg.MinSwitchESNRdB = 50
	h := newCtlHarness(t, 3, cfg)
	client := packet.ClientMAC(1)
	h.ctl.RegisterClient(client, packet.ClientIP(1), 0)

	h.runFeeding(client, 25, map[int]float64{0: 20, 1: 15, 2: 14})
	h.aps[2].dead = true
	h.runFeeding(client, 100, map[int]float64{0: 20, 1: 15})
	if !h.ctl.apAlive(0) || !h.ctl.apAlive(1) || h.ctl.apAlive(2) {
		t.Fatalf("alive = %v %v %v, want true true false",
			h.ctl.apAlive(0), h.ctl.apAlive(1), h.ctl.apAlive(2))
	}

	for i := range h.aps {
		h.aps[i].downs = nil
	}
	if err := h.ctl.SendDownlink(&packet.Packet{ClientMAC: client, Bytes: 1500}); err != nil {
		t.Fatal(err)
	}
	h.eng.RunUntil(h.eng.Now() + sim.Millisecond)
	if len(h.aps[0].downs) != 1 || len(h.aps[1].downs) != 1 {
		t.Fatalf("alive APs got %d, %d downlink copies, want 1, 1", len(h.aps[0].downs), len(h.aps[1].downs))
	}
	if len(h.aps[2].downs) != 0 {
		t.Fatalf("dead AP got %d downlink copies, want 0", len(h.aps[2].downs))
	}

	// The AP comes back: its next backhaul message re-admits it, and
	// fan-out (fed by fresh CSI) includes it again.
	h.aps[2].dead = false
	h.runFeeding(client, 30, map[int]float64{0: 20, 1: 15, 2: 14})
	if h.ctl.Stats.APsReadmitted != 1 {
		t.Fatalf("APsReadmitted = %d, want 1", h.ctl.Stats.APsReadmitted)
	}
	if !h.ctl.apAlive(2) {
		t.Fatal("AP2 still dead after speaking")
	}
	for i := range h.aps {
		h.aps[i].downs = nil
	}
	if err := h.ctl.SendDownlink(&packet.Packet{ClientMAC: client, Bytes: 1500}); err != nil {
		t.Fatal(err)
	}
	h.eng.RunUntil(h.eng.Now() + sim.Millisecond)
	if len(h.aps[2].downs) != 1 {
		t.Fatalf("re-admitted AP got %d downlink copies, want 1", len(h.aps[2].downs))
	}
}

func TestControllerCrashRestart(t *testing.T) {
	cfg := DefaultConfig().WithHealth()
	h := newCtlHarness(t, 2, cfg)
	client := packet.ClientMAC(1)
	h.ctl.RegisterClient(client, packet.ClientIP(1), 0)
	h.runFeeding(client, 25, map[int]float64{0: 20, 1: 12})

	h.ctl.Crash()
	if !h.ctl.Down() {
		t.Fatal("controller not down after Crash")
	}
	if err := h.ctl.SendDownlink(&packet.Packet{ClientMAC: client, Bytes: 1500}); err != nil {
		t.Fatal(err)
	}
	if h.ctl.Stats.CtlDownlinkDropped != 1 {
		t.Fatalf("CtlDownlinkDropped = %d, want 1", h.ctl.Stats.CtlDownlinkDropped)
	}
	// A crashed controller must neither probe nor declare deaths while the
	// APs' silence is its own fault.
	dead := h.ctl.Stats.APsMarkedDead
	h.eng.RunUntil(h.eng.Now() + 300*sim.Millisecond)
	if h.ctl.Stats.APsMarkedDead != dead {
		t.Fatalf("controller declared %d AP deaths while itself down", h.ctl.Stats.APsMarkedDead-dead)
	}

	h.ctl.Restart()
	if h.ctl.Down() {
		t.Fatal("controller still down after Restart")
	}
	if !h.ctl.apAlive(0) || !h.ctl.apAlive(1) {
		t.Fatal("recovery grace did not re-admit the APs")
	}
	// State is cold but functional: registrations survived, traffic flows.
	h.runFeeding(client, 25, map[int]float64{0: 20, 1: 12})
	for i := range h.aps {
		h.aps[i].downs = nil
	}
	if err := h.ctl.SendDownlink(&packet.Packet{ClientMAC: client, Bytes: 1500}); err != nil {
		t.Fatal(err)
	}
	h.eng.RunUntil(h.eng.Now() + sim.Millisecond)
	if len(h.aps[0].downs) != 1 {
		t.Fatalf("serving AP got %d downlink copies after recovery, want 1", len(h.aps[0].downs))
	}
	if h.ctl.Stats.APsMarkedDead != dead {
		t.Fatalf("recovery grace failed: %d deaths declared right after restart", h.ctl.Stats.APsMarkedDead-dead)
	}
}

// A crash mid-switch drops the handshake: its span is cut short at the
// crash rather than left open, an ack for it after the restart completes
// nothing, and the restarted controller's next switch completes normally.
func TestCrashCutsInFlightSwitch(t *testing.T) {
	h := newCtlHarness(t, 2, DefaultConfig().WithHealth())
	reg := metrics.NewRegistry()
	h.ctl.UseMetrics(reg)
	client := packet.ClientMAC(1)
	h.ctl.RegisterClient(client, packet.ClientIP(1), 0)
	h.aps[0].ackStop = false // the stop goes unanswered
	for i := 0; i < 50 && !h.ctl.InFlightSwitch(client); i++ {
		h.runFeeding(client, 1, map[int]float64{0: 12, 1: 20})
	}
	if !h.ctl.InFlightSwitch(client) || len(h.aps[0].stops) == 0 {
		t.Fatal("setup: no switch in flight")
	}
	stale := h.aps[0].stops[0].SwitchID

	crashAt := h.eng.Now()
	h.ctl.Crash()
	h.ctl.Restart()
	_ = h.bh.Send(packet.APIP(1), packet.ControllerIP,
		&packet.SwitchAck{Client: client, AP: packet.APIP(1), SwitchID: stale})
	h.eng.RunUntil(h.eng.Now() + sim.Millisecond)
	if h.ctl.InFlightSwitch(client) || len(h.ctl.History) != 0 || h.ctl.ServingAP(client) != 0 {
		t.Fatalf("the pre-crash switch outlived the restart: in flight %v, history %+v, serving %d",
			h.ctl.InFlightSwitch(client), h.ctl.History, h.ctl.ServingAP(client))
	}

	h.aps[0].ackStop = true
	h.runFeeding(client, 50, map[int]float64{0: 12, 1: 20})
	if len(h.ctl.History) != 1 || h.ctl.ServingAP(client) != 1 {
		t.Fatalf("after the restart: history %+v, serving %d, want one switch to AP 1", h.ctl.History, h.ctl.ServingAP(client))
	}

	snap := reg.Snapshot()
	for _, sp := range snap.Spans {
		if sp.ID == stale && (!sp.CutShort || sp.Completed || sp.EndNS != int64(crashAt)) {
			t.Errorf("dropped switch's span = %+v, want cut short at %d", sp, crashAt)
		}
	}
	if sum := snap.SwitchSummary(); sum.Total != 2 || sum.Completed != 1 || sum.CutShort != 1 {
		t.Errorf("span summary %+v, want 2 begun, 1 completed, 1 cut short", sum)
	}
}

// --- PullFrom: the adopter's end of a cross-controller move (DESIGN.md §13) ---

// pullHarness adopts one client at AP 1 after 50 ms and attaches a peer
// controller's AP that hears stops and never answers them.
func pullHarness(t *testing.T, cfg Config) (h *ctlHarness, client packet.MACAddr, foreign *fakeAP) {
	h = newCtlHarness(t, 2, cfg)
	foreign = &fakeAP{bh: h.bh, ip: packet.APIP(9)}
	h.bh.Attach(foreign.ip, foreign)
	h.eng.RunUntil(50 * sim.Millisecond)
	client = packet.ClientMAC(1)
	h.ctl.AdoptClient(client, packet.ClientIP(1), 1, 7, nil)
	return h, client, foreign
}

// A pull whose old AP stays silent sends exactly pullStopBudget stops, then
// starts the target directly at the adopted cursor and completes forced. An
// ack from any AP but the target completes nothing, and the completed pull
// is the caller's to book: one done call, nothing on the controller's ledger,
// the dwell clock still at the adoption.
func TestPullEscalatesAfterStopBudget(t *testing.T) {
	h, client, foreign := pullHarness(t, DefaultConfig())
	adoptedAt := h.eng.Now()
	const id = 0x800001
	var recs []SwitchRecord
	h.ctl.PullFrom(client, APInfo{ID: 9, IP: foreign.ip}, id, func(r SwitchRecord) { recs = append(recs, r) })

	_ = h.bh.Send(packet.APIP(0), packet.ControllerIP, &packet.SwitchAck{Client: client, AP: packet.APIP(0), SwitchID: id})
	h.eng.RunUntil(adoptedAt + pullStopBudget*switchTimeout - sim.Millisecond)
	if !h.ctl.InFlightSwitch(client) || len(recs) != 0 {
		t.Fatalf("an ack naming AP 0 completed a pull onto AP 1: %+v", recs)
	}
	if len(foreign.stops) != pullStopBudget || len(h.aps[1].starts) != 0 {
		t.Fatalf("before the escalation: %d stops, %d starts, want %d and 0",
			len(foreign.stops), len(h.aps[1].starts), pullStopBudget)
	}
	if s := foreign.stops[0]; s.NextAP != packet.APIP(1) || s.SwitchID != id {
		t.Errorf("stop = %+v, want NextAP %v and the caller's switch id", s, packet.APIP(1))
	}

	h.eng.RunUntil(h.eng.Now() + 2*sim.Millisecond)
	if len(foreign.stops) != pullStopBudget || len(h.aps[1].starts) != 1 || h.aps[1].starts[0].Index != 7 {
		t.Fatalf("after the budget: %d stops, starts %+v, want one start at index 7", len(foreign.stops), h.aps[1].starts)
	}
	if len(recs) != 1 {
		t.Fatalf("done called %d times, want 1", len(recs))
	}
	if r := recs[0]; !r.Forced || r.From != 9 || r.To != 1 || r.Attempts != pullStopBudget+1 || r.Duration <= 0 {
		t.Errorf("record = %+v, want forced, 9 -> 1, %d attempts", r, pullStopBudget+1)
	}
	st := h.ctl.Stats
	if st.SwitchesStarted != 0 || st.SwitchesDone != 0 || len(h.ctl.History) != 0 {
		t.Errorf("the pull reached the controller's ledger: %+v, history %+v", st, h.ctl.History)
	}
	if got := h.ctl.clients[client].lastSwitch; got != adoptedAt {
		t.Errorf("lastSwitch = %v, want the adoption instant %v", got, adoptedAt)
	}
	if h.ctl.InFlightSwitch(client) || h.ctl.ServingAP(client) != 1 {
		t.Errorf("after the pull: in flight %v, serving %d", h.ctl.InFlightSwitch(client), h.ctl.ServingAP(client))
	}
	h.eng.RunUntil(h.eng.Now() + 100*sim.Millisecond)
	if len(h.aps[1].starts) != 1 || len(recs) != 1 {
		t.Errorf("the completed pull kept transmitting: %d starts, %d done calls", len(h.aps[1].starts), len(recs))
	}
}

// An old AP nobody can name gets no stop: the pull opens with the start.
func TestPullWithoutOldAPStartsDirectly(t *testing.T) {
	h, client, foreign := pullHarness(t, DefaultConfig())
	var recs []SwitchRecord
	h.ctl.PullFrom(client, APInfo{ID: -1}, 0x800001, func(r SwitchRecord) { recs = append(recs, r) })
	h.eng.RunUntil(h.eng.Now() + sim.Millisecond)
	if len(foreign.stops)+len(h.aps[0].stops)+len(h.aps[1].stops) != 0 {
		t.Error("a stop was sent with no old AP to stop")
	}
	if len(h.aps[1].starts) != 1 || len(recs) != 1 || !recs[0].Forced || recs[0].Attempts != 1 || recs[0].From != -1 {
		t.Errorf("starts %+v, records %+v, want one direct start and one forced record", h.aps[1].starts, recs)
	}
}

// A pull whose target AP dies is completed by the failover op that replaces
// it: the client lands on an alive AP and the caller still hears done, once.
func TestPullSurvivesTargetDeath(t *testing.T) {
	h, client, foreign := pullHarness(t, DefaultConfig().WithHealth())
	h.aps[1].dead = true
	var recs []SwitchRecord
	h.ctl.PullFrom(client, APInfo{ID: 9, IP: foreign.ip}, 0x800001, func(r SwitchRecord) { recs = append(recs, r) })
	h.eng.RunUntil(h.eng.Now() + 200*sim.Millisecond)
	if h.ctl.Stats.APsMarkedDead != 1 || h.ctl.Stats.ForcedSwitches != 1 {
		t.Fatalf("setup: stats = %+v, want AP 1 marked dead and one failover", h.ctl.Stats)
	}
	if len(recs) != 1 || recs[0].From != 9 || recs[0].To != 0 || !recs[0].Forced {
		t.Fatalf("records = %+v, want one forced completion 9 -> 0", recs)
	}
	if h.ctl.ServingAP(client) != 0 || h.ctl.InFlightSwitch(client) || len(h.ctl.History) != 0 {
		t.Errorf("serving %d, in flight %v, history %+v", h.ctl.ServingAP(client), h.ctl.InFlightSwitch(client), h.ctl.History)
	}
}
