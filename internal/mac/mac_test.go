package mac

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"wgtt/internal/csi"
	"wgtt/internal/mobility"
	"wgtt/internal/packet"
	"wgtt/internal/phy"
	"wgtt/internal/radio"
	"wgtt/internal/sim"
)

// --- Block ACK helpers ---

func TestBitmapBuildAndCheck(t *testing.T) {
	bm := BuildBitmap(100, []uint16{100, 101, 103, 163})
	if !BitmapAcks(100, bm, 100) || !BitmapAcks(100, bm, 101) || !BitmapAcks(100, bm, 103) {
		t.Error("bitmap missing in-window seqs")
	}
	if !BitmapAcks(100, bm, 163) {
		t.Error("bitmap missing last in-window seq")
	}
	if BitmapAcks(100, bm, 102) {
		t.Error("bitmap acknowledged an unseen seq")
	}
	if BitmapAcks(100, bm, 164) {
		t.Error("seq outside 64-window acknowledged")
	}
	if n := bits.OnesCount64(bm); n != 4 {
		t.Errorf("bitmap acknowledges %d seqs, want 4", n)
	}
}

func TestBitmapWraparound(t *testing.T) {
	// SSN near the top of the 12-bit space; seqs wrap through zero.
	bm := BuildBitmap(4090, []uint16{4090, 4095, 0, 5})
	for _, s := range []uint16{4090, 4095, 0, 5} {
		if !BitmapAcks(4090, bm, s) {
			t.Errorf("wrapped seq %d not acknowledged", s)
		}
	}
	if BitmapAcks(4090, bm, 60) {
		t.Error("seq past the window acknowledged")
	}
}

func TestSeqBefore(t *testing.T) {
	if !seqBefore(10, 20) || seqBefore(20, 10) {
		t.Error("basic ordering wrong")
	}
	if !seqBefore(4095, 0) {
		t.Error("wraparound ordering wrong")
	}
	if seqBefore(7, 7) {
		t.Error("equal seqs should not be before")
	}
}

func TestFrameStartSeq(t *testing.T) {
	f := &Frame{MPDUs: []*MPDU{{Seq: 4094}, {Seq: 4095}, {Seq: 0}, {Seq: 1}}}
	if f.StartSeq() != 4094 {
		t.Errorf("StartSeq = %d, want 4094 (circular min)", f.StartSeq())
	}
	if (&Frame{}).StartSeq() != 0 {
		t.Error("empty frame StartSeq should be 0")
	}
}

func TestFrameAirtime(t *testing.T) {
	var sizes []int
	data := &Frame{Kind: KindData, MCS: 7, MPDUs: []*MPDU{{Bytes: 1500}, {Bytes: 1500}}}
	if a := data.airtime(&sizes); a <= phy.HTPreamble {
		t.Errorf("data airtime = %v", a)
	}
	beacon := &Frame{Kind: KindBeacon, To: BroadcastAddr, MPDUs: []*MPDU{{Bytes: 100}}}
	if a := beacon.airtime(&sizes); a <= phy.LegacyPreamble {
		t.Errorf("beacon airtime = %v", a)
	}
	if beacon.ExpectsResponse() {
		t.Error("beacon should not expect a response")
	}
	if !data.ExpectsResponse() {
		t.Error("unicast data should expect a response")
	}
}

func TestFrameKindString(t *testing.T) {
	if KindData.String() != "data" || KindMgmt.String() != "mgmt" ||
		KindBeacon.String() != "beacon" || FrameKind(9).String() != "kind?9" {
		t.Error("FrameKind strings wrong")
	}
}

// --- Minstrel ---

func TestMinstrelConvergesUp(t *testing.T) {
	m := newMinstrel()
	for i := 0; i < 50; i++ {
		m.update(7, 10, 10)
	}
	if m.best() != 7 {
		t.Errorf("best = %v after perfect MCS7 history", m.best())
	}
}

func TestMinstrelConvergesDown(t *testing.T) {
	// Closed loop on a link where only MCS ≤ 1 delivers: the controller
	// must walk down and settle there.
	m := newMinstrel()
	for i := 0; i < 60; i++ {
		b := m.best()
		if b <= 1 {
			m.update(b, 10, 10)
		} else {
			m.update(b, 10, 0)
		}
	}
	if m.best() > 1 {
		t.Errorf("best = %v, want ≤ MCS1 when only low rates deliver", m.best())
	}
}

func TestMinstrelFailureDemotesUpperTail(t *testing.T) {
	m := newMinstrel()
	for i := 0; i < 30; i++ {
		m.update(4, 10, 0)
	}
	if m.prob[7] > 0.1 {
		t.Errorf("MCS7 prob = %v after persistent MCS4 failure", m.prob[7])
	}
}

func TestMinstrelProbes(t *testing.T) {
	m := newMinstrel()
	for i := 0; i < 50; i++ {
		m.update(3, 10, 10)
	}
	rnd := sim.NewRNG(1).Stream("probe")
	saw := make(map[phy.MCS]bool)
	for i := 0; i < 64; i++ {
		saw[m.pick(rnd)] = true
	}
	if len(saw) < 2 {
		t.Error("minstrel never probes away from the best rate")
	}
	if m.update(3, 0, 0); m.prob[3] == 0 {
		t.Error("zero-attempt update should be ignored")
	}
}

// --- End-to-end MAC harness ---

type recSink struct {
	frames []RxEvent
	bas    []BAEvent
}

// The sink copies what the tests assert on: the event is the medium's again
// when the call returns.
func (r *recSink) OnFrame(ev *RxEvent) {
	cp := *ev
	cp.Decoded = slices.Clone(ev.Decoded)
	cp.SNRdB = slices.Clone(ev.SNRdB)
	r.frames = append(r.frames, cp)
}

func (r *recSink) OnBlockAck(ev *BAEvent) {
	cp := *ev
	cp.SNRdB = slices.Clone(ev.SNRdB)
	r.bas = append(r.bas, cp)
}

func (r *recSink) Overhears(packet.MACAddr) bool { return true }

type queueSource struct {
	st     *Station
	to     packet.MACAddr
	mcs    phy.MCS
	queue  []*packet.Packet
	built  int
	builds []*Frame
	done   []*TxResult
}

func (q *queueSource) BuildFrame() *Frame {
	if len(q.queue) == 0 {
		return nil
	}
	var mpdus []*MPDU
	n := min(len(q.queue), 16)
	for i := 0; i < n; i++ {
		p := q.queue[i]
		mpdus = append(mpdus, &MPDU{Seq: q.st.NextSeq(q.to), Pkt: p, Bytes: p.Bytes})
	}
	q.queue = q.queue[n:]
	q.built++
	fr := &Frame{Kind: KindData, From: q.st.Addr, To: q.to, MCS: q.mcs, MPDUs: mpdus}
	q.builds = append(q.builds, fr)
	return fr
}

func (q *queueSource) OnTxDone(res *TxResult) {
	q.done = append(q.done, res)
	if len(q.queue) > 0 {
		q.st.Kick()
	}
}

type harness struct {
	eng    *sim.Engine
	ch     *radio.Channel
	medium *Medium
	// pathGains counts Link.PathGainDB calls: one per loss draw (its
	// budget), one per received-power sample. pathGainsAt counts them per position, for each
	// of the link's two ends.
	pathGains   int
	pathGainsAt map[mobility.Point]int
}

func newHarness(t *testing.T, seed uint64) *harness {
	t.Helper()
	h := &harness{eng: sim.NewEngine(), pathGainsAt: make(map[mobility.Point]int)}
	rng := sim.NewRNG(seed)
	params := radio.DefaultParams()
	params.NoFading = true // deterministic links: these tests probe the MAC
	params.Obstruction = func(a, b mobility.Point) float64 {
		h.pathGains++
		h.pathGainsAt[a]++
		h.pathGainsAt[b]++
		return 0
	}
	h.ch = radio.NewChannel(params, rng)
	h.medium = NewMedium(h.eng, h.ch, rng.Stream("mac"))
	return h
}

func (h *harness) addAP(t *testing.T, name string, x float64, aliases ...packet.MACAddr) (*Station, *recSink) {
	t.Helper()
	ep := &radio.Endpoint{
		Name:         name,
		Trace:        mobility.Stationary{At: mobility.Point{X: x, Y: mobility.APSetback}},
		Antenna:      radio.NewLairdGD24BP(),
		BoresightRad: -math.Pi / 2,
		TxPowerDBm:   17,
		ExtraLossDB:  28,
	}
	if err := h.ch.AddEndpoint(ep); err != nil {
		t.Fatal(err)
	}
	sink := &recSink{}
	st := NewStation(h.medium, StationConfig{
		Addr:     packet.APMAC(int(x)),
		Aliases:  aliases,
		Endpoint: ep,
	})
	st.SetSink(sink)
	return st, sink
}

func (h *harness) addClient(t *testing.T, name string, tr mobility.Trace, speedHint float64) (*Station, *recSink) {
	t.Helper()
	ep := &radio.Endpoint{
		Name:        name,
		Trace:       tr,
		TxPowerDBm:  15,
		SpeedHintMS: speedHint,
	}
	if err := h.ch.AddEndpoint(ep); err != nil {
		t.Fatal(err)
	}
	sink := &recSink{}
	st := NewStation(h.medium, StationConfig{
		Addr:     packet.ClientMAC(1),
		Endpoint: ep,
	})
	st.SetSink(sink)
	return st, sink
}

// addOmni adds a station with an omni antenna at (x, 0): within earshot of
// the other omni stations, which the harness APs, behind their window
// losses, are not.
func (h *harness) addOmni(t *testing.T, addr packet.MACAddr, x float64, sink Sink, promiscuous bool) *Station {
	t.Helper()
	ep := &radio.Endpoint{
		Name:       addr.String(),
		Trace:      mobility.Stationary{At: mobility.Point{X: x}},
		TxPowerDBm: 15,
	}
	if err := h.ch.AddEndpoint(ep); err != nil {
		t.Fatal(err)
	}
	st := NewStation(h.medium, StationConfig{Addr: addr, Endpoint: ep, Promiscuous: promiscuous})
	st.SetSink(sink)
	return st
}

func mkPackets(n, bytes int) []*packet.Packet {
	out := make([]*packet.Packet, n)
	for i := range out {
		out[i] = &packet.Packet{FlowID: 1, Seq: uint32(i), IPID: uint16(i), Bytes: bytes}
	}
	return out
}

func TestStrongLinkDelivery(t *testing.T) {
	h := newHarness(t, 1)
	ap, _ := h.addAP(t, "ap1", 20)
	client, csink := h.addClient(t, "car1", mobility.Stationary{At: mobility.Point{X: 20}}, 0)

	src := &queueSource{st: ap, to: client.Addr, mcs: 4, queue: mkPackets(32, 1400)}
	ap.SetSource(src)
	ap.Kick()
	h.eng.RunUntil(sim.Second)

	got := 0
	for _, ev := range csink.frames {
		if ev.Kind == KindData {
			got += len(ev.Decoded)
		}
		if ev.RSSIdBm != 0 {
			t.Errorf("data frame carries RSSI %v dBm; only beacons are measured", ev.RSSIdBm)
		}
	}
	if got < 30 {
		t.Fatalf("delivered %d/32 MPDUs on a strong link", got)
	}
	// The AP should have seen Block ACKs back.
	if len(src.done) == 0 {
		t.Fatal("no TxResults")
	}
	acked := false
	for _, res := range src.done {
		if res != nil && res.BAReceived {
			acked = true
		}
	}
	if !acked {
		t.Error("no Block ACK received on a strong link")
	}
	// CSI snapshots ride along with reception.
	if len(csink.frames[0].SNRdB) != 56 {
		t.Error("RxEvent missing CSI snapshot")
	}
}

func TestAggregationAmortizesGrants(t *testing.T) {
	h := newHarness(t, 2)
	ap, _ := h.addAP(t, "ap1", 20)
	client, _ := h.addClient(t, "car1", mobility.Stationary{At: mobility.Point{X: 20}}, 0)
	src := &queueSource{st: ap, to: client.Addr, mcs: 4, queue: mkPackets(64, 1400)}
	ap.SetSource(src)
	ap.Kick()
	h.eng.RunUntil(sim.Second)
	if src.built == 0 {
		t.Fatal("nothing sent")
	}
	if src.built > 8 {
		t.Errorf("64 packets took %d frames; aggregation not working", src.built)
	}
	if h.medium.Grants == 0 || h.medium.Utilization() <= 0 {
		t.Error("medium stats not accounted")
	}
}

func TestWeakLinkLoses(t *testing.T) {
	h := newHarness(t, 3)
	ap, _ := h.addAP(t, "ap1", 20)
	// Client far outside the cell.
	client, csink := h.addClient(t, "car1", mobility.Stationary{At: mobility.Point{X: 90}}, 0)
	src := &queueSource{st: ap, to: client.Addr, mcs: 7, queue: mkPackets(64, 1400)}
	ap.SetSource(src)
	ap.Kick()
	h.eng.RunUntil(sim.Second)
	got := 0
	for _, ev := range csink.frames {
		got += len(ev.Decoded)
	}
	if got > 10 {
		t.Errorf("delivered %d/64 MPDUs at MCS7 far outside the cell", got)
	}
	if ap.BAMissed == 0 {
		t.Error("no BA misses recorded on a hopeless link")
	}
}

func TestPullModelSkipsFlushedWork(t *testing.T) {
	h := newHarness(t, 4)
	ap, _ := h.addAP(t, "ap1", 20)
	client, csink := h.addClient(t, "car1", mobility.Stationary{At: mobility.Point{X: 20}}, 0)
	src := &queueSource{st: ap, to: client.Addr, mcs: 4, queue: mkPackets(16, 1400)}
	ap.SetSource(src)
	ap.Kick()
	// Flush the queue before the grant can fire (queues are consulted at
	// grant time — the WGTT stop-packet semantics).
	src.queue = nil
	h.eng.RunUntil(sim.Second)
	if len(csink.frames) != 0 {
		t.Error("flushed packets still hit the air")
	}
	if h.medium.Grants != 0 {
		t.Error("grant consumed for an empty frame")
	}
}

func TestBeaconBroadcast(t *testing.T) {
	h := newHarness(t, 5)
	ap, _ := h.addAP(t, "ap1", 20)
	_, csink := h.addClient(t, "car1", mobility.Stationary{At: mobility.Point{X: 20}}, 0)
	ap.SendOneShot(func() *Frame {
		return &Frame{Kind: KindBeacon, From: ap.Addr, To: BroadcastAddr, MPDUs: []*MPDU{{Bytes: 100}}}
	}, nil)
	h.eng.RunUntil(100 * sim.Millisecond)
	found := false
	for _, ev := range csink.frames {
		if ev.Kind == KindBeacon {
			found = true
			if ev.RSSIdBm > -20 || ev.RSSIdBm < -100 {
				t.Errorf("implausible beacon RSSI %v dBm", ev.RSSIdBm)
			}
		}
	}
	if !found {
		t.Fatal("beacon not received")
	}
	if len(csink.bas) != 0 {
		t.Error("beacon solicited a response")
	}
}

func TestSharedBSSIDMultiReceiver(t *testing.T) {
	// Two APs share the BSSID alias; a client uplink frame is decoded and
	// answered; the client must not suffer a response collision when one AP
	// is much closer (capture).
	h := newHarness(t, 6)
	bssid := packet.MACAddr{0x02, 0xbb, 0, 0, 0, 1}
	ap1, s1 := h.addAP(t, "ap1", 20, bssid)
	_, s2 := h.addAP(t, "ap2", 60, bssid)
	client, _ := h.addClient(t, "car1", mobility.Stationary{At: mobility.Point{X: 20}}, 0)
	_ = ap1

	src := &queueSource{st: client, to: bssid, mcs: 2, queue: mkPackets(32, 1000)}
	client.SetSource(src)
	client.Kick()
	h.eng.RunUntil(sim.Second)

	n1, n2 := 0, 0
	for _, ev := range s1.frames {
		n1 += len(ev.Decoded)
	}
	for _, ev := range s2.frames {
		n2 += len(ev.Decoded)
	}
	if n1 < 25 {
		t.Errorf("near AP decoded %d/32", n1)
	}
	// The far AP may decode some (uplink diversity) but typically fewer.
	if n2 > n1 {
		t.Errorf("far AP decoded more (%d) than near AP (%d)", n2, n1)
	}
	// Client should have received Block ACKs; collision rate ≈ 0 thanks to
	// capture (the paper's Table 3 observation).
	if client.RespCollided > uint64(len(src.done))/10 {
		t.Errorf("resp collisions = %d of %d", client.RespCollided, len(src.done))
	}
	acked := 0
	for _, res := range src.done {
		if res != nil && res.BAReceived {
			acked++
		}
	}
	if acked == 0 {
		t.Error("client never received a Block ACK")
	}
}

func TestSeqNumbersWrap(t *testing.T) {
	h := newHarness(t, 7)
	ap, _ := h.addAP(t, "ap1", 20)
	peer := packet.ClientMAC(9)
	ap.seq[peer] = 4095
	if s := ap.NextSeq(peer); s != 4095 {
		t.Errorf("NextSeq = %d", s)
	}
	if s := ap.NextSeq(peer); s != 0 {
		t.Errorf("NextSeq after wrap = %d", s)
	}
}

func TestRespondFilter(t *testing.T) {
	h := newHarness(t, 8)
	bssid := packet.MACAddr{0x02, 0xbb, 0, 0, 0, 1}
	ap, _ := h.addAP(t, "ap1", 20, bssid)
	ap.SetRespondFilter(func(packet.MACAddr) bool { return false })
	client, _ := h.addClient(t, "car1", mobility.Stationary{At: mobility.Point{X: 20}}, 0)
	src := &queueSource{st: client, to: bssid, mcs: 2, queue: mkPackets(8, 1000)}
	client.SetSource(src)
	client.Kick()
	h.eng.RunUntil(500 * sim.Millisecond)
	for _, res := range src.done {
		if res != nil && res.BAReceived {
			t.Fatal("filtered AP still responded")
		}
	}
	if client.BAMissed == 0 {
		t.Error("client should have recorded BA misses")
	}
}

func TestStationRequiresEndpoint(t *testing.T) {
	h := newHarness(t, 9)
	defer func() {
		if recover() == nil {
			t.Error("station without endpoint accepted")
		}
	}()
	NewStation(h.medium, StationConfig{})
}

func TestRetuneMovesStation(t *testing.T) {
	h := newHarness(t, 11)
	ap, _ := h.addAP(t, "ap1", 20)
	client, csink := h.addClient(t, "car1", mobility.Stationary{At: mobility.Point{X: 20}}, 0)

	// A second medium models another wireless channel over the same space.
	medium2 := NewMedium(h.eng, h.ch, sim.NewRNG(99).Stream("mac2"))

	src := &queueSource{st: ap, to: client.Addr, mcs: 4, queue: mkPackets(16, 1400)}
	ap.SetSource(src)
	ap.Kick()
	h.eng.RunUntil(200 * sim.Millisecond)
	before := len(csink.frames)
	if before == 0 {
		t.Fatal("no delivery before retune")
	}

	// Client leaves for channel 2: the AP's transmissions no longer reach it.
	client.Retune(medium2)
	if client.medium != medium2 {
		t.Fatal("Retune did not switch media")
	}
	src.queue = mkPackets(16, 1400)
	ap.Kick()
	h.eng.RunUntil(400 * sim.Millisecond)
	if got := len(csink.frames); got != before {
		t.Errorf("client on another channel still received %d frames", got-before)
	}

	// And back: delivery resumes.
	client.Retune(h.medium)
	src.queue = mkPackets(16, 1400)
	ap.Kick()
	h.eng.RunUntil(600 * sim.Millisecond)
	if len(csink.frames) <= before {
		t.Error("delivery did not resume after retuning back")
	}
	// Retune to the current medium is a no-op.
	client.Retune(h.medium)
}

func TestRetuneAbandonsPendingAttempt(t *testing.T) {
	h := newHarness(t, 12)
	_, _ = h.addAP(t, "ap1", 20)
	client, _ := h.addClient(t, "car1", mobility.Stationary{At: mobility.Point{X: 20}}, 0)
	medium2 := NewMedium(h.eng, h.ch, sim.NewRNG(98).Stream("mac2"))

	src := &queueSource{st: client, to: packet.APMAC(20), mcs: 2, queue: mkPackets(4, 500)}
	client.SetSource(src)
	client.Kick() // attempt now pending on medium 1
	client.Retune(medium2)
	h.eng.RunUntil(100 * sim.Millisecond)
	// The station must not deadlock: its attempt was either abandoned and
	// re-issued on the new medium, or completed; either way the queue drains.
	if len(src.queue) != 0 {
		t.Errorf("station deadlocked after retune: %d packets still queued", len(src.queue))
	}
}

// --- Capture ---

func TestCaptureRule(t *testing.T) {
	h := newHarness(t, 13)
	near, _ := h.addAP(t, "near", 20)
	left, _ := h.addAP(t, "left", 10)
	right, _ := h.addAP(t, "right", 30)
	far, _ := h.addAP(t, "far", 60)
	rx, _ := h.addClient(t, "car1", mobility.Stationary{At: mobility.Point{X: 20}}, 0)

	for _, tc := range []struct {
		name      string
		onAir     []*Station
		strongest int  // index into onAir; checked when captured or -1
		captured  bool // margin clears captureDB
		samples   int  // received powers asked of the radio
	}{
		{"a lone transmission captures unsampled", []*Station{near}, 0, true, 0},
		{"equal powers collide", []*Station{left, right}, 0, false, 2},
		{"the stronger captures beyond the margin", []*Station{far, near}, 1, true, 2},
		{"the receiver's own transmission is no candidate", []*Station{rx, far}, 1, true, 0},
		{"nothing but the receiver on the air", []*Station{rx}, -1, false, 0},
	} {
		h.medium.onAir = tc.onAir
		h.pathGains = 0
		strongest, link, margin := h.medium.capture(rx, sim.Millisecond)
		if got := strongest >= 0 && margin >= captureDB; got != tc.captured {
			t.Errorf("%s: captured = %v (strongest %d, margin %.1f dB)", tc.name, got, strongest, margin)
		}
		if (tc.captured || tc.strongest < 0) && strongest != tc.strongest {
			t.Errorf("%s: strongest = %d, want %d", tc.name, strongest, tc.strongest)
		}
		var want *radio.Link
		if strongest >= 0 {
			want, _ = h.ch.Link(tc.onAir[strongest].Endpoint.Name, rx.Endpoint.Name)
		}
		if link != want {
			t.Errorf("%s: link %p is not the strongest transmitter's (%p)", tc.name, link, want)
		}
		if h.pathGains != tc.samples {
			t.Errorf("%s: %d received-power samples, want %d", tc.name, h.pathGains, tc.samples)
		}
	}
}

// constSource makes every medium draw the same: all responders pick one
// jitter slot, and every PER draw is 0.5.
type constSource struct{}

func (constSource) Uint64() uint64 { return 1 << 52 }

func TestResponderHearsNoOtherResponse(t *testing.T) {
	h := newHarness(t, 14)
	h.medium.rnd = rand.New(constSource{})
	omni := func(id int, x float64) (*Station, *recSink) {
		sink := &recSink{}
		return h.addOmni(t, packet.ClientMAC(id), x, sink, false), sink
	}
	asker, askerSink := omni(1, 20)
	near, nearSink := omni(2, 22)
	far, farSink := omni(3, 60)

	// Both answer the asker in the same slot. The asker captures the near
	// one; the far one, alone with the near response, would capture it too —
	// but it is transmitting, not listening.
	h.medium.deliverResponses([]respPlan{
		{responder: far, toward: asker, ssn: 7},
		{responder: near, toward: asker, ssn: 7},
	}, sim.Millisecond, 2*sim.Millisecond)
	h.eng.RunUntil(3 * sim.Millisecond)

	if len(askerSink.bas) != 1 || askerSink.bas[0].Responder != near.Addr || askerSink.bas[0].Overheard {
		t.Fatalf("asker heard %+v, want the near station's response", askerSink.bas)
	}
	if len(askerSink.bas[0].SNRdB) != 56 {
		t.Error("BAEvent missing the CSI of the link capture resolved")
	}
	if len(nearSink.bas)+len(farSink.bas) != 0 {
		t.Errorf("responders heard %d + %d responses", len(nearSink.bas), len(farSink.bas))
	}
	if h.medium.RespCollisions != 0 || h.medium.RespTotal != 1 {
		t.Errorf("medium counted %d/%d response collisions", h.medium.RespCollisions, h.medium.RespTotal)
	}

	// The same far station, when it is not answering, does hear the near one.
	h.medium.deliverResponses([]respPlan{{responder: near, toward: asker, ssn: 8}}, 4*sim.Millisecond, 5*sim.Millisecond)
	h.eng.RunUntil(6 * sim.Millisecond)
	if len(farSink.bas) != 1 || !farSink.bas[0].Overheard {
		t.Errorf("idle far station heard %+v, want the near response overheard", farSink.bas)
	}
}

// keepSink breaks the Sink contract on purpose: it retains the events.
type keepSink struct {
	frames []*RxEvent
	bas    []*BAEvent
}

func (k *keepSink) OnFrame(ev *RxEvent)           { k.frames = append(k.frames, ev) }
func (k *keepSink) OnBlockAck(ev *BAEvent)        { k.bas = append(k.bas, ev) }
func (k *keepSink) Overhears(packet.MACAddr) bool { return true }

// An event belongs to the sink only during the call: afterwards it reads as
// its zero value — a sink that kept the pointer sees nothing, never a later
// frame's CSI, until the medium hands the event out again — and the free
// lists hold every event ever made, so they stop growing once the busiest
// exchange has been seen.
func TestSinkEventReleased(t *testing.T) {
	h := newHarness(t, 21)
	ap, _ := h.addAP(t, "ap1", 20)
	_, _ = h.addAP(t, "ap2", 27) // overhears the client's Block ACKs
	client, _ := h.addClient(t, "car1", mobility.Stationary{At: mobility.Point{X: 20}}, 0)
	kept := &keepSink{}
	for _, st := range h.medium.stations {
		st.SetSink(kept)
	}
	src := &queueSource{st: ap, to: client.Addr, mcs: 4}
	ap.SetSource(src)
	batch := func() {
		src.queue = append(src.queue, mkPackets(64, 1400)...)
		ap.Kick()
		h.eng.Run()
	}

	batch() // warm-up
	rxMade, baMade := len(h.medium.rxFree), len(h.medium.baFree)
	if len(kept.frames) == 0 || len(kept.bas) == 0 || rxMade == 0 || baMade == 0 {
		t.Fatalf("warm-up delivered %d frames, %d responses; %d + %d events free",
			len(kept.frames), len(kept.bas), rxMade, baMade)
	}
	batch()
	if rx, ba := len(h.medium.rxFree), len(h.medium.baFree); rx != rxMade || ba != baMade {
		t.Errorf("free lists grew after warm-up: %d → %d frame events, %d → %d response events", rxMade, rx, baMade, ba)
	}
	for _, ev := range kept.frames {
		z := *ev
		z.m, z.decStore, z.fire = nil, nil, nil
		if !reflect.DeepEqual(z, RxEvent{}) || len(ev.decStore) != 0 {
			t.Fatalf("retained frame event is not zero: %+v", z)
		}
	}
	for _, ev := range kept.bas {
		z := *ev
		z.m, z.fire = nil, nil
		if !reflect.DeepEqual(z, BAEvent{}) {
			t.Fatalf("retained response event is not zero: %+v", z)
		}
	}
	for _, ev := range h.medium.rxFree {
		if slices.ContainsFunc(ev.decStore[:cap(ev.decStore)], func(mp *MPDU) bool { return mp != nil }) {
			t.Fatal("a free event still pins a decoded MPDU")
		}
	}
}

// declineSink records like recSink but declines every monitor-mode capture.
type declineSink struct{ recSink }

func (*declineSink) Overhears(packet.MACAddr) bool { return false }

// What a receiver's sink and a sender's completion saw, without the
// medium's pointers: two media that made the same draws produce equal views.
type (
	rxView struct {
		At                sim.Time
		From              packet.MACAddr
		Kind              FrameKind
		Synced, Overheard bool
		Seqs              []uint16
		SNRdB             []float64
	}
	baView struct {
		At        sim.Time
		Responder packet.MACAddr
		SSN       uint16
		Bitmap    uint64
		Overheard bool
		SNRdB     []float64
	}
	txView struct {
		Seqs                      []uint16
		BAReceived, RespCollision bool
		SSN                       uint16
		Bitmap                    uint64
	}
)

func seqsOf(mpdus []*MPDU) []uint16 {
	var out []uint16
	for _, mp := range mpdus {
		out = append(out, mp.Seq)
	}
	return out
}

func viewsOf(sinks []*recSink, srcs []*queueSource) (rx []rxView, ba []baView, tx []txView) {
	for _, s := range sinks {
		for _, ev := range s.frames {
			rx = append(rx, rxView{ev.At, ev.From, ev.Kind, ev.Synced, ev.Overheard, seqsOf(ev.Decoded), ev.SNRdB})
		}
		for _, ev := range s.bas {
			ba = append(ba, baView{ev.At, ev.Responder, ev.SSN, ev.Bitmap, ev.Overheard, ev.SNRdB})
		}
	}
	for _, src := range srcs {
		for _, res := range src.done {
			if res == nil {
				tx = append(tx, txView{})
				continue
			}
			tx = append(tx, txView{seqsOf(res.Frame.MPDUs), res.BAReceived, res.RespCollision, res.SSN, res.Bitmap})
		}
	}
	return rx, ba, tx
}

// TestOverheardSkipKeepsDrawStream: a capture whose sink declines it
// (Sink.Overhears) is not simulated, yet the medium makes every draw it
// would have made. Two media from one seed — two APs sharing a BSSID, two
// clients, downlink A-MPDUs, uplink frames, same-slot collisions — differ
// only in a promiscuous observer that overhears everything in A and nothing
// in B: everyone else sees the same events and completions, and the media's
// next draws agree. B's observer gets no event, and its skipped captures cost
// no CSI snapshot: its links are evaluated only for the sync draws of the
// data frames that reach it and for the capture rule.
func TestOverheardSkipKeepsDrawStream(t *testing.T) {
	observerAt := mobility.Point{X: 25}
	build := func(observer Sink) (*harness, []*recSink, []*queueSource) {
		h := newHarness(t, 31)
		bssid := packet.MACAddr{0x02, 0xbb, 0, 0, 0, 1}
		ap1, s1 := h.addAP(t, "ap1", 20, bssid)
		ap2, s2 := h.addAP(t, "ap2", 30, bssid)
		r1, r2 := &recSink{}, &recSink{}
		cl1 := h.addOmni(t, packet.ClientMAC(1), 22, r1, false)
		cl2 := h.addOmni(t, packet.ClientMAC(2), 28, r2, false)
		h.addOmni(t, packet.ClientMAC(9), observerAt.X, observer, true)
		var srcs []*queueSource
		for _, l := range []struct {
			st  *Station
			to  packet.MACAddr
			mcs phy.MCS
		}{{ap1, cl1.Addr, 4}, {ap2, cl2.Addr, 5}, {cl1, bssid, 2}, {cl2, bssid, 3}} {
			src := &queueSource{st: l.st, to: l.to, mcs: l.mcs, queue: mkPackets(600, 1200)}
			l.st.SetSource(src)
			l.st.Kick()
			srcs = append(srcs, src)
		}
		h.eng.RunUntil(sim.Second)
		return h, []*recSink{s1, s2, r1, r2}, srcs
	}
	hearing, declining := &recSink{}, &declineSink{}
	hA, sinksA, srcsA := build(hearing)
	hB, sinksB, srcsB := build(declining)

	mA, mB := hA.medium, hB.medium
	if mA.Grants != mB.Grants || mA.TxCollisions != mB.TxCollisions ||
		mA.RespTotal != mB.RespTotal || mA.RespCollisions != mB.RespCollisions {
		t.Fatalf("media diverged: %v vs %v", mA, mB)
	}
	if mA.Grants < 100 || mA.TxCollisions == 0 {
		t.Fatalf("%v: too few grants or no same-slot collision to test against", mA)
	}
	rxA, baA, txA := viewsOf(sinksA, srcsA)
	rxB, baB, txB := viewsOf(sinksB, srcsB)
	if !reflect.DeepEqual(rxA, rxB) {
		t.Error("the owned receivers' frame events differ")
	}
	if !reflect.DeepEqual(baA, baB) {
		t.Error("the owned receivers' response events differ")
	}
	if !reflect.DeepEqual(txA, txB) {
		t.Error("the senders' completions differ")
	}
	for i := range 4 {
		if a, b := mA.rnd.Uint64(), mB.rnd.Uint64(); a != b {
			t.Fatalf("next draw %d differs: %#x vs %#x", i, a, b)
		}
	}

	if len(hearing.frames) == 0 || len(hearing.bas) == 0 {
		t.Fatalf("the hearing observer got %d frames and %d responses", len(hearing.frames), len(hearing.bas))
	}
	if n := len(declining.frames) + len(declining.bas); n != 0 {
		t.Errorf("the declining observer got %d events", n)
	}
	// A frame lost to a collision costs neither observer a path gain: it is
	// never sampled, and A's event carries no snapshot (Synced false: at this
	// range a sync failure is vanishingly rare, so every unsynced frame here
	// is a collided one). Every other frame costs each observer one path
	// gain for its sync draw. Each response A's observer got cost the budget
	// of its loss draw, which B — declining it — makes without: that is the
	// whole difference (a Block ACK lost in the channel at this range would
	// add one).
	collided := 0
	for _, ev := range hearing.frames {
		if !ev.Synced {
			collided++
			if len(ev.SNRdB) != 0 {
				t.Fatalf("a frame lost to a collision carries a %d-subcarrier snapshot", len(ev.SNRdB))
			}
		}
	}
	if collided == 0 {
		t.Fatal("the hearing observer lost no frame to a collision")
	}
	skipped := len(hearing.bas)
	if a, b := hA.pathGainsAt[observerAt], hB.pathGainsAt[observerAt]; a-b != skipped {
		t.Errorf("observer's links cost %d path-gain evaluations in A and %d in B; want %d fewer in B", a, b, skipped)
	}
}

// TestSettleDecidesBeforeSampling: a loss draw the link's budget and fading
// ceiling already decide — an AP hearing a distant AP — takes no fading
// sample and returns an empty snapshot; one they cannot — a client in its
// AP's cell — samples once. Both make exactly one draw and allocate nothing.
func TestSettleDecidesBeforeSampling(t *testing.T) {
	ch := radio.NewChannel(radio.DefaultParams(), sim.NewRNG(5))
	ap := func(name string, x float64) *radio.Endpoint {
		return &radio.Endpoint{Name: name, Trace: mobility.Stationary{At: mobility.Point{X: x, Y: mobility.APSetback}},
			Antenna: radio.NewLairdGD24BP(), BoresightRad: -math.Pi / 2, TxPowerDBm: 17, ExtraLossDB: 28}
	}
	near, far := ap("near", 20), ap("far", 80)
	car := &radio.Endpoint{Name: "car", Trace: mobility.DriveBy(20, 0, 0), TxPowerDBm: 15, SpeedHintMS: mobility.MPH(15)}
	for _, e := range []*radio.Endpoint{near, far, car} {
		if err := ch.AddEndpoint(e); err != nil {
			t.Fatal(err)
		}
	}
	mod := phy.Lookup(4).Modulation
	for _, tc := range []struct {
		name    string
		peer    string
		from    *radio.Endpoint
		sampled bool
	}{{"decided", "far", near, false}, {"sampled", "car", car, true}} {
		t.Run(tc.name, func(t *testing.T) {
			link, err := ch.Link("near", tc.peer)
			if err != nil {
				t.Fatal(err)
			}
			m := NewMedium(sim.NewEngine(), ch, rand.New(rand.NewPCG(1, 2)))
			ref := rand.New(rand.NewPCG(1, 2))
			snr := make([]float64, 0, radio.DefaultParams().Subcarriers)
			ch.Samples = 0
			i := 0
			avg := testing.AllocsPerRun(100, func() {
				i++
				var ok bool
				snr, _, ok = m.settle(link, tc.from, sim.Time(i)*sim.Millisecond, mod, phy.SyncFailureProb, snr)
				if ok != tc.sampled || (len(snr) != 0) != tc.sampled {
					t.Fatalf("capture %d: synced %v with a %d-subcarrier snapshot", i, ok, len(snr))
				}
			})
			if avg != 0 {
				t.Errorf("settle allocates %.1f times per capture, want 0", avg)
			}
			want := uint64(0)
			if tc.sampled {
				want = uint64(i)
			}
			if ch.Samples != want {
				t.Errorf("%d fading samples over %d captures, want %d", ch.Samples, i, want)
			}
			for range i {
				ref.Float64()
			}
			if a, b := m.rnd.Uint64(), ref.Uint64(); a != b {
				t.Error("settle made other than one draw per capture")
			}
		})
	}
}

// TestSettleMatchesSampleThenDraw: over faded links from the cell's middle
// to far beyond it, for both loss functions, settle reaches the outcome the
// sample-then-draw rule reaches from the same draw — it only skips the
// samples that cannot change it — and the skip is taken often enough, and
// declined often enough, for both paths to be exercised.
func TestSettleMatchesSampleThenDraw(t *testing.T) {
	ch := radio.NewChannel(radio.DefaultParams(), sim.NewRNG(9))
	ap := &radio.Endpoint{Name: "ap", Trace: mobility.Stationary{At: mobility.Point{X: 0, Y: mobility.APSetback}},
		Antenna: radio.NewLairdGD24BP(), BoresightRad: -math.Pi / 2, TxPowerDBm: 17, ExtraLossDB: 28}
	if err := ch.AddEndpoint(ap); err != nil {
		t.Fatal(err)
	}
	var links []*radio.Link
	var cars []*radio.Endpoint
	for i, x := range []float64{2, 10, 20, 30, 45, 60, 90} {
		car := &radio.Endpoint{Name: fmt.Sprint("car", i), Trace: mobility.Stationary{At: mobility.Point{X: x}},
			TxPowerDBm: 15, SpeedHintMS: mobility.MPH(25)}
		if err := ch.AddEndpoint(car); err != nil {
			t.Fatal(err)
		}
		l, err := ch.Link("ap", car.Name)
		if err != nil {
			t.Fatal(err)
		}
		links, cars = append(links, l), append(cars, car)
	}
	m := NewMedium(sim.NewEngine(), ch, rand.New(rand.NewPCG(3, 4)))
	ref := rand.New(rand.NewPCG(3, 4))
	var snr, want []float64
	var decided, sampled int
	for _, loss := range []func(float64) float64{phy.SyncFailureProb, blockAckLoss} {
		for i := range 4000 {
			l, from := links[i%len(links)], cars[i%len(cars)]
			at := sim.Time(i) * 997 * sim.Microsecond
			mod := phy.Lookup(phy.MCS(i % 8)).Modulation
			var ok bool
			var esnr float64
			snr, esnr, ok = m.settle(l, from, at, mod, loss, snr)
			want = l.SNRInto(at, from, want)
			wantESNR := csi.ESNRdB(want, mod)
			if wantOK := ref.Float64() >= loss(wantESNR); ok != wantOK {
				t.Fatalf("capture %d: settle says %v, sample-then-draw %v (ESNR %.2f dB)", i, ok, wantOK, wantESNR)
			}
			if len(snr) == 0 {
				decided++
				continue
			}
			sampled++
			if esnr != wantESNR {
				t.Fatalf("capture %d: settle's ESNR %v, the sample's %v", i, esnr, wantESNR)
			}
		}
	}
	if decided < 1000 || sampled < 1000 {
		t.Errorf("%d captures decided unsampled and %d sampled: both paths want exercise", decided, sampled)
	}
	t.Logf("%d decided, %d sampled", decided, sampled)
}
