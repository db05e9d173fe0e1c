package ap

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"wgtt/internal/backhaul"
	"wgtt/internal/mac"
	"wgtt/internal/mobility"
	"wgtt/internal/packet"
	"wgtt/internal/radio"
	"wgtt/internal/sim"
)

var testBSSID = packet.MACAddr{0x02, 0xbb, 0, 0, 0, 1}

type clientSink struct{ got []*mac.MPDU }

func (c *clientSink) OnFrame(ev *mac.RxEvent)       { c.got = append(c.got, ev.Decoded...) }
func (c *clientSink) Overhears(packet.MACAddr) bool { return true }

type ctlRecorder struct {
	ups        []*packet.UpData
	csis       []*packet.CSIReport
	acks       []*packet.SwitchAck
	healthAcks []*packet.HealthAck
}

func (c *ctlRecorder) HandleBackhaul(_ packet.IPv4Addr, msg packet.Message) {
	switch m := msg.(type) {
	case *packet.UpData:
		c.ups = append(c.ups, m)
	case *packet.CSIReport:
		cp := *m // the report is the switch's again after the call
		c.csis = append(c.csis, &cp)
	case *packet.SwitchAck:
		c.acks = append(c.acks, m)
	case *packet.HealthAck:
		c.healthAcks = append(c.healthAcks, m)
	}
}

type apHarness struct {
	eng    *sim.Engine
	bh     *backhaul.Switch
	ch     *radio.Channel
	medium *mac.Medium
	ctl    *ctlRecorder
	aps    []*AP
	client *mac.Station
	csink  *clientSink
}

// newAPHarness wires n APs (7.5 m apart from x=20) plus one static client
// under the first AP, over a fade-free channel.
func newAPHarness(t *testing.T, n int, clientX float64) *apHarness {
	t.Helper()
	eng := sim.NewEngine()
	rng := sim.NewRNG(77)
	params := radio.DefaultParams()
	params.NoFading = true
	ch := radio.NewChannel(params, rng)
	medium := mac.NewMedium(eng, ch, rng.Stream("mac"))
	bh := backhaul.NewSwitch(eng, 200*sim.Microsecond)
	ctl := &ctlRecorder{}
	bh.Attach(packet.ControllerIP, ctl)

	h := &apHarness{eng: eng, bh: bh, ch: ch, medium: medium, ctl: ctl}
	var peerIPs []packet.IPv4Addr
	for i := 0; i < n; i++ {
		cfg := DefaultConfig(i, testBSSID)
		ep := &radio.Endpoint{
			Name:         cfg.Name,
			Trace:        mobility.Stationary{At: mobility.Point{X: 20 + float64(i)*7.5, Y: mobility.APSetback}},
			Antenna:      radio.NewLairdGD24BP(),
			BoresightRad: -math.Pi / 2,
			TxPowerDBm:   17,
			ExtraLossDB:  28,
		}
		if err := ch.AddEndpoint(ep); err != nil {
			t.Fatal(err)
		}
		st := mac.NewStation(medium, mac.StationConfig{
			Addr:        cfg.MAC,
			Aliases:     []packet.MACAddr{testBSSID},
			Endpoint:    ep,
			Promiscuous: true,
		})
		a := New(cfg, eng, bh, st, packet.ControllerIP, rng.Stream(cfg.Name))
		h.aps = append(h.aps, a)
		peerIPs = append(peerIPs, cfg.IP)
	}
	for i, a := range h.aps {
		var peers []packet.IPv4Addr
		for j, ip := range peerIPs {
			if j != i {
				peers = append(peers, ip)
			}
		}
		a.SetPeers(peers)
	}

	cep := &radio.Endpoint{
		Name:       "car1",
		Trace:      mobility.Stationary{At: mobility.Point{X: clientX}},
		TxPowerDBm: 15,
	}
	if err := ch.AddEndpoint(cep); err != nil {
		t.Fatal(err)
	}
	h.csink = &clientSink{}
	h.client = mac.NewStation(medium, mac.StationConfig{
		Addr:     packet.ClientMAC(1),
		Endpoint: cep,
	})
	h.client.SetSink(h.csink)
	// Whatever a test does to the APs, their counters must still add up.
	t.Cleanup(func() {
		for _, a := range h.aps {
			if err := a.Conserved(); err != nil {
				t.Error(err)
			}
		}
	})
	return h
}

// pushDownlink tunnels n packets (controller→AP fan-out) to all APs.
func (h *apHarness) pushDownlink(n int, startIdx uint16) {
	client := packet.ClientMAC(1)
	for i := 0; i < n; i++ {
		p := &packet.Packet{
			FlowID:    1,
			Seq:       uint32(i),
			IPID:      uint16(i),
			ClientMAC: client,
			Bytes:     1400,
			Index:     (startIdx + uint16(i)) & packet.IndexMask,
		}
		for _, a := range h.aps {
			_ = h.bh.Send(packet.ControllerIP, a.Config().IP, &packet.DownData{APDst: a.Config().IP, Pkt: p})
		}
	}
}

// A start whose index lies past the 12-bit space is no message of the
// protocol: the switch's codec refuses it, so the AP never handles it (a
// cursor walk toward such an index would never end).
func TestOutOfRangeStartRefused(t *testing.T) {
	h := newAPHarness(t, 2, 20)
	client := packet.ClientMAC(1)
	for _, a := range h.aps {
		a.Associate(client, packet.ClientIP(1), false)
	}
	h.pushDownlink(8, 0)
	h.eng.RunUntil(10 * sim.Millisecond)
	start := &packet.Start{Client: client, Index: 4101, SwitchID: 1}
	if err := h.bh.Send(h.aps[1].Config().IP, h.aps[0].Config().IP, start); err == nil {
		t.Error("the switch carried a start with index 4101")
	}
	h.eng.RunUntil(sim.Second)
	if n := h.aps[0].Stats.StartsHandled; n != 0 {
		t.Errorf("StartsHandled = %d, want 0", n)
	}
}

func TestDownlinkDeliveryThroughCyclicQueue(t *testing.T) {
	h := newAPHarness(t, 2, 20)
	client := packet.ClientMAC(1)
	for _, a := range h.aps {
		a.Associate(client, packet.ClientIP(1), false)
	}
	h.aps[0].Associate(client, packet.ClientIP(1), true) // serving

	h.pushDownlink(40, 0)
	h.eng.RunUntil(2 * sim.Second)

	if len(h.csink.got) < 38 {
		t.Fatalf("client decoded %d/40 MPDUs", len(h.csink.got))
	}
	if h.aps[0].Stats.MPDUsDelivered < 38 {
		t.Errorf("AP0 delivered = %d", h.aps[0].Stats.MPDUsDelivered)
	}
	// The non-serving AP buffered everything but sent nothing.
	if h.aps[1].Stats.DownEnqueued != 40 {
		t.Errorf("AP1 enqueued = %d", h.aps[1].Stats.DownEnqueued)
	}
	if h.aps[1].Stats.MPDUsDelivered != 0 {
		t.Errorf("non-serving AP delivered %d MPDUs", h.aps[1].Stats.MPDUsDelivered)
	}
}

func TestQueueDepthAndStopStart(t *testing.T) {
	// Client at the midpoint between the two APs so both links work.
	h := newAPHarness(t, 2, 23.75)
	client := packet.ClientMAC(1)
	h.aps[0].Associate(client, packet.ClientIP(1), true)
	h.aps[1].Associate(client, packet.ClientIP(1), false)

	// Fill queues without letting anything transmit (no Kick until events
	// run): push and immediately check depth at both APs.
	h.pushDownlink(300, 0)
	h.eng.RunUntil(210 * sim.Microsecond) // just past backhaul latency
	d0, d1 := h.aps[0].QueueDepth(client), h.aps[1].QueueDepth(client)
	if d0 == 0 || d1 != 300 {
		t.Fatalf("queue depths = %d, %d", d0, d1)
	}

	// Let AP0 send a little, then switch to AP1 mid-stream while a large
	// backlog remains.
	h.eng.RunUntil(5 * sim.Millisecond)
	stop := &packet.Stop{Client: client, NextAP: h.aps[1].Config().IP, SwitchID: 1}
	_ = h.bh.Send(packet.ControllerIP, h.aps[0].Config().IP, stop)
	h.eng.RunUntil(5 * sim.Second)

	if !h.aps[1].client(client).serving {
		t.Fatal("AP1 not serving after start")
	}
	if h.aps[0].client(client).serving {
		t.Fatal("AP0 still serving after stop")
	}
	if len(h.ctl.acks) != 1 {
		t.Fatalf("controller saw %d switch acks", len(h.ctl.acks))
	}
	if h.ctl.acks[0].SwitchID != 1 {
		t.Error("ack switch ID mismatch")
	}
	// Nearly all 300 packets should reach the client across the two APs (minus
	// any in flight exactly at the stop, which the retry flush may drop).
	if len(h.csink.got) < 270 {
		t.Errorf("client decoded %d/300 across the switch", len(h.csink.got))
	}
	if h.aps[1].Stats.MPDUsDelivered == 0 {
		t.Error("AP1 delivered nothing after taking over")
	}
	// Continuity: AP1 resumed from AP0's first-unsent index, so the union
	// of delivered indices has no big hole.
	seen := map[uint16]bool{}
	for _, mp := range h.csink.got {
		if mp.Pkt != nil {
			seen[mp.Pkt.Index] = true
		}
	}
	missing := 0
	for i := uint16(0); i < 300; i++ {
		if !seen[i] {
			missing++
		}
	}
	if missing > 30 {
		t.Errorf("%d indices never delivered", missing)
	}
}

func TestDuplicateStopStillAnswers(t *testing.T) {
	h := newAPHarness(t, 2, 20)
	client := packet.ClientMAC(1)
	h.aps[0].Associate(client, packet.ClientIP(1), true)
	h.aps[1].Associate(client, packet.ClientIP(1), false)
	stop := &packet.Stop{Client: client, NextAP: h.aps[1].Config().IP, SwitchID: 7}
	_ = h.bh.Send(packet.ControllerIP, h.aps[0].Config().IP, stop)
	_ = h.bh.Send(packet.ControllerIP, h.aps[0].Config().IP, stop)
	h.eng.RunUntil(sim.Second)
	if h.aps[0].Stats.StopsHandled != 2 {
		t.Errorf("stops handled = %d", h.aps[0].Stats.StopsHandled)
	}
	// Both stops elicit a start; AP1 acks both (idempotent takeover).
	if h.aps[1].Stats.StartsHandled != 2 {
		t.Errorf("starts handled = %d", h.aps[1].Stats.StartsHandled)
	}
	if !h.aps[1].client(client).serving {
		t.Error("takeover failed")
	}
}

func TestUplinkForwardingAndCSI(t *testing.T) {
	h := newAPHarness(t, 2, 20)
	client := packet.ClientMAC(1)
	h.aps[0].Associate(client, packet.ClientIP(1), true)
	h.aps[1].Associate(client, packet.ClientIP(1), false)

	// Client sends uplink data to the shared BSSID.
	up := make([]*packet.Packet, 20)
	for i := range up {
		up[i] = &packet.Packet{
			FlowID: 2, Seq: uint32(i), IPID: uint16(1000 + i),
			SrcIP: packet.ClientIP(1), ClientMAC: client, Bytes: 800, Uplink: true,
		}
	}
	srcq := up
	h.client.SetSource(sourceFunc{
		build: func() *mac.Frame {
			if len(srcq) == 0 {
				return nil
			}
			var mpdus []*mac.MPDU
			for _, p := range srcq[:min(10, len(srcq))] {
				mpdus = append(mpdus, &mac.MPDU{Seq: h.client.NextSeq(testBSSID), Pkt: p, Bytes: p.Bytes})
			}
			srcq = srcq[len(mpdus):]
			return &mac.Frame{Kind: mac.KindData, From: h.client.Addr, To: testBSSID, MCS: 2, MPDUs: mpdus}
		},
		onDone: func(*mac.TxResult) {
			if len(srcq) > 0 {
				h.client.Kick()
			}
		},
	})
	h.client.Kick()
	h.eng.RunUntil(2 * sim.Second)

	if len(h.ctl.ups) < 20 {
		t.Errorf("controller received %d uplink packets (dupes expected, ≥20)", len(h.ctl.ups))
	}
	if len(h.ctl.csis) == 0 {
		t.Error("no CSI reports reached the controller")
	}
	// CSI reports should come from at least the near AP.
	fromAP0 := 0
	for _, r := range h.ctl.csis {
		if r.AP == h.aps[0].Config().IP {
			fromAP0++
		}
	}
	if fromAP0 == 0 {
		t.Error("near AP produced no CSI")
	}
}

type sourceFunc struct {
	build  func() *mac.Frame
	onDone func(*mac.TxResult)
}

func (s sourceFunc) BuildFrame() *mac.Frame     { return s.build() }
func (s sourceFunc) OnTxDone(res *mac.TxResult) { s.onDone(res) }

func TestForwardedBADedupAndMerge(t *testing.T) {
	h := newAPHarness(t, 2, 20)
	client := packet.ClientMAC(1)
	h.aps[0].Associate(client, packet.ClientIP(1), true)

	// Manufacture a retry MPDU pending at the serving AP.
	cs := h.aps[0].client(client)
	mp := &mac.MPDU{Seq: 100, Pkt: &packet.Packet{ClientMAC: client, Bytes: 100, Index: 5}, Bytes: 100}
	cs.retryQ = append(cs.retryQ, mp)
	h.aps[0].Stats.DownEnqueued++ // booked as if tunneled and sent
	h.aps[0].Stats.DownSent++

	fwd := &packet.BlockAckFwd{Client: client, FromAP: h.aps[1].Config().IP, SSN: 100, Bitmap: 1}
	h.aps[0].HandleBackhaul(h.aps[1].Config().IP, fwd)
	if h.aps[0].Stats.BAMerged != 1 {
		t.Fatalf("BAMerged = %d", h.aps[0].Stats.BAMerged)
	}
	if len(cs.retryQ) != 0 {
		t.Fatal("acked MPDU still in retry queue")
	}
	// Same scoreboard again: dropped as duplicate (§3.2.1 check), so it
	// acknowledges nothing, not even an MPDU it covers.
	cs.retryQ = append(cs.retryQ, &mac.MPDU{Seq: 100, Pkt: mp.Pkt, Bytes: 100})
	h.aps[0].Stats.DownEnqueued++
	h.aps[0].Stats.DownSent++
	h.aps[0].HandleBackhaul(h.aps[1].Config().IP, fwd)
	if h.aps[0].Stats.BAMerged != 1 || len(cs.retryQ) != 1 {
		t.Errorf("duplicate BA merged: BAMerged = %d, %d MPDUs left", h.aps[0].Stats.BAMerged, len(cs.retryQ))
	}
}

func TestForwardedBAIgnoredWhenNotServing(t *testing.T) {
	h := newAPHarness(t, 2, 20)
	client := packet.ClientMAC(1)
	h.aps[0].Associate(client, packet.ClientIP(1), false)
	fwd := &packet.BlockAckFwd{Client: client, SSN: 0, Bitmap: 1}
	h.aps[0].HandleBackhaul(h.aps[1].Config().IP, fwd)
	if h.aps[0].Stats.BAMerged != 0 {
		t.Error("non-serving AP processed a forwarded BA")
	}
}

func TestCyclicOverwriteDropsOldest(t *testing.T) {
	h := newAPHarness(t, 1, 200) // client far away: nothing transmits
	client := packet.ClientMAC(1)
	h.aps[0].Associate(client, packet.ClientIP(1), false) // never serving
	slots := cyclicQueueSlots
	maxBacklog := slots/2 - 64

	// A modest backlog is kept in full.
	h.pushDownlink(100, 0)
	h.eng.RunUntil(sim.Millisecond)
	if d := h.aps[0].QueueDepth(client); d != 100 {
		t.Fatalf("depth = %d, want 100", d)
	}
	if st := h.aps[0].Stats; st.DownOverwritten != 0 || st.DownTrimmed != 0 {
		t.Fatal("drops counted before the ring lapped")
	}

	// Overload: the writer laps the reader; the oldest packets are dropped
	// and the backlog stays bounded (drop-oldest ring semantics).
	h.pushDownlink(3000, 100)
	h.eng.RunUntil(2 * sim.Millisecond)
	if d := h.aps[0].QueueDepth(client); d > maxBacklog {
		t.Errorf("depth = %d, want ≤ %d", d, maxBacklog)
	}
	if st := h.aps[0].Stats; st.DownTrimmed == 0 || st.DownOverwritten != 0 {
		t.Errorf("overload at a non-serving AP counted %d trims and %d overwrites, want trims only",
			st.DownTrimmed, st.DownOverwritten)
	}
}

// TestRingCountsEachDropOnce: every packet the ring lets go unsent is
// counted once, as a loss (DownOverwritten) at the serving AP and as a
// routine trim (DownTrimmed) at any other — never both, and never again
// when its slot is reused. Fed 12,000 packets in one burst, before any can
// go on the air, an AP keeps the bounded backlog and has dropped the rest.
func TestRingCountsEachDropOnce(t *testing.T) {
	const fed = 12000
	maxBacklog := cyclicQueueSlots/2 - 64
	for _, serving := range []bool{false, true} {
		h := newAPHarness(t, 1, 200)
		client := packet.ClientMAC(1)
		h.aps[0].Associate(client, packet.ClientIP(1), serving)
		h.pushDownlink(fed, 0)
		h.eng.RunUntil(210 * sim.Microsecond) // delivered, nothing granted yet
		st := h.aps[0].Stats
		if d := h.aps[0].QueueDepth(client); st.DownEnqueued != fed || d != maxBacklog {
			t.Fatalf("serving=%v: %d enqueued, depth %d; want %d and %d", serving, st.DownEnqueued, d, fed, maxBacklog)
		}
		wantOver, wantTrim := uint64(0), uint64(fed-maxBacklog)
		if serving {
			wantOver, wantTrim = wantTrim, wantOver
		}
		if st.DownOverwritten != wantOver || st.DownTrimmed != wantTrim {
			t.Errorf("serving=%v: %d overwritten and %d trimmed, want %d and %d",
				serving, st.DownOverwritten, st.DownTrimmed, wantOver, wantTrim)
		}
	}
}

// A stop moves pending retries into the one-shot drain queue (the paper's
// NIC hardware-queue drain) instead of silently dropping them.
func TestStopDrainsRetriesOnce(t *testing.T) {
	h := newAPHarness(t, 2, 20)
	client := packet.ClientMAC(1)
	h.aps[0].Associate(client, packet.ClientIP(1), true)
	h.aps[1].Associate(client, packet.ClientIP(1), false)

	cs := h.aps[0].client(client)
	for i := uint16(0); i < 5; i++ {
		cs.retryQ = append(cs.retryQ, &mac.MPDU{
			Seq: 100 + i, Bytes: 1000,
			Pkt: &packet.Packet{ClientMAC: client, Bytes: 1000, Index: i},
		})
		h.aps[0].Stats.DownEnqueued++ // booked as if tunneled and sent
		h.aps[0].Stats.DownSent++
	}
	stop := &packet.Stop{Client: client, NextAP: h.aps[1].Config().IP, SwitchID: 3}
	_ = h.bh.Send(packet.ControllerIP, h.aps[0].Config().IP, stop)
	h.eng.RunUntil(sim.Second)

	if len(cs.retryQ) != 0 || len(cs.drainQ) != 0 {
		t.Errorf("retry/drain queues not emptied: %d/%d", len(cs.retryQ), len(cs.drainQ))
	}
	// The drained MPDUs went out over the (still good) old link and were
	// delivered — that's the whole point of the drain.
	if got := len(h.csink.got); got < 4 {
		t.Errorf("only %d/5 drained MPDUs reached the client", got)
	}
	if h.aps[0].client(client).serving {
		t.Error("AP0 still serving after stop")
	}
}

// A crashed AP must fall silent on both faces: no frames on the air, no
// backhaul processing (a stop goes unanswered — the no-ack case the
// controller's failover path exists for), and no probe acks. Restart must
// come back with cold queues (DESIGN.md §11).
func TestCrashSilencesAPAndRestartColdStarts(t *testing.T) {
	h := newAPHarness(t, 2, 20)
	client := packet.ClientMAC(1)
	h.aps[0].Associate(client, packet.ClientIP(1), true)
	h.aps[1].Associate(client, packet.ClientIP(1), false)

	h.pushDownlink(50, 0)
	h.eng.RunUntil(2 * sim.Millisecond)

	h.aps[0].Crash()
	if !h.aps[0].Down() {
		t.Fatal("Down() false after Crash")
	}
	// A frame already committed to the air at the crash instant still
	// lands (physics); let it settle, then nothing more may arrive.
	h.eng.RunUntil(20 * sim.Millisecond)
	deliveredBefore := len(h.csink.got)

	// A stop sent to the crashed AP produces neither a start nor an ack.
	stop := &packet.Stop{Client: client, NextAP: h.aps[1].Config().IP, SwitchID: 9}
	_ = h.bh.Send(packet.ControllerIP, h.aps[0].Config().IP, stop)
	// A probe goes unanswered too.
	_ = h.bh.Send(packet.ControllerIP, h.aps[0].Config().IP, &packet.HealthProbe{Seq: 1})
	h.eng.RunUntil(2 * sim.Second)

	if got := len(h.csink.got); got != deliveredBefore {
		t.Errorf("crashed AP kept transmitting: %d -> %d MPDUs", deliveredBefore, got)
	}
	if len(h.ctl.acks) != 0 {
		t.Error("crashed AP produced a switch ack")
	}
	if h.aps[0].Stats.StopsHandled != 0 {
		t.Error("crashed AP processed a stop")
	}
	if len(h.ctl.healthAcks) != 0 {
		t.Error("crashed AP answered a health probe")
	}

	// Restart: queues are cold, serving flag cleared, association kept.
	h.aps[0].Restart()
	if h.aps[0].Down() {
		t.Fatal("Down() true after Restart")
	}
	if h.aps[0].client(client).serving {
		t.Error("restarted AP still serving")
	}
	if d := h.aps[0].QueueDepth(client); d != 0 {
		t.Errorf("restarted AP queue depth = %d, want 0 (ring state lost)", d)
	}
	cs := h.aps[0].client(client)
	if cs.ip != packet.ClientIP(1) {
		t.Error("association identity lost across restart")
	}

	// The restarted AP answers probes again.
	_ = h.bh.Send(packet.ControllerIP, h.aps[0].Config().IP, &packet.HealthProbe{Seq: 2, At: 5})
	h.eng.RunUntil(3 * sim.Second)
	if len(h.ctl.healthAcks) != 1 {
		t.Error("restarted AP did not answer the probe")
	}
}

// A healthy AP answers probes immediately with the probe's Seq/At echoed.
func TestHealthProbeAnswered(t *testing.T) {
	h := newAPHarness(t, 1, 20)
	acks := 0
	h.bh.Attach(packet.ControllerIP, backhaul.NodeFunc(func(_ packet.IPv4Addr, msg packet.Message) {
		if a, ok := msg.(*packet.HealthAck); ok {
			acks++
			if a.Seq != 7 || a.At != 123 || a.AP != h.aps[0].Config().IP {
				t.Errorf("ack fields wrong: %+v", a)
			}
		}
	}))
	_ = h.bh.Send(packet.ControllerIP, h.aps[0].Config().IP, &packet.HealthProbe{Seq: 7, At: 123})
	h.eng.RunUntil(10 * sim.Millisecond)
	if acks != 1 {
		t.Fatalf("got %d health acks, want 1", acks)
	}
}

// The radio-less 32-AP × 1-client assembly of the fan-out benchmark — New and
// Associate alone — allocates what it did before the MAC side got its
// reusable envelopes (1,076,824 B in 232 objects, nearly all of it the
// rings): those are made on the first frame heard. The race build reads 256 B
// more, before that change and after it, hence the 0.1% on the bytes.
func TestAssemblyAllocBudget(t *testing.T) {
	const budgetBytes, budgetObjects = 1076824 + 1076824/1000, 232
	eng := sim.NewEngine()
	rng := sim.NewRNG(2017)
	cfgs := make([]Config, 32)
	rnds := make([]*rand.Rand, len(cfgs))
	for id := range cfgs {
		cfgs[id] = DefaultConfig(id, testBSSID)
		rnds[id] = rng.Stream("ap/" + cfgs[id].Name)
	}
	bytes, objects := ^uint64(0), ^uint64(0)
	for i := 0; i < 3; i++ { // the least of three: the runtime's own allocations are not ours
		bh := backhaul.NewSwitch(eng, 200*sim.Microsecond)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for id, cfg := range cfgs {
			a := New(cfg, eng, bh, nil, packet.ControllerIP, rnds[id])
			a.Associate(packet.ClientMAC(1), packet.ClientIP(1), id == 0)
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	if bytes > budgetBytes || objects > budgetObjects {
		t.Errorf("assembly allocates %d B in %d objects, budget %d B in %d", bytes, objects, budgetBytes, budgetObjects)
	}
	t.Logf("assembly allocates %d B in %d objects", bytes, objects)
}
