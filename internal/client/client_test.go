package client

import (
	"slices"
	"testing"

	"wgtt/internal/mac"
	"wgtt/internal/mobility"
	"wgtt/internal/packet"
	"wgtt/internal/phy"
	"wgtt/internal/radio"
	"wgtt/internal/sim"
)

var bssid = packet.MACAddr{0x02, 0xbb, 0, 0, 0, 1}

type harness struct {
	eng    *sim.Engine
	medium *mac.Medium
	cl     *Client
	apSink *recSink
}

// recSink copies what the tests assert on: the event is the medium's again
// when OnFrame returns.
type recSink struct{ frames []mac.RxEvent }

func (r *recSink) OnFrame(ev *mac.RxEvent) {
	cp := *ev
	cp.Decoded = slices.Clone(ev.Decoded)
	r.frames = append(r.frames, cp)
}
func (r *recSink) Overhears(packet.MACAddr) bool { return true }

func newHarness(t *testing.T) *harness {
	t.Helper()
	eng := sim.NewEngine()
	rng := sim.NewRNG(5)
	params := radio.DefaultParams()
	params.NoFading = true
	ch := radio.NewChannel(params, rng)
	medium := mac.NewMedium(eng, ch, rng.Stream("mac"))

	apEP := &radio.Endpoint{
		Name:         "ap1",
		Trace:        mobility.Stationary{At: mobility.Point{X: 20, Y: mobility.APSetback}},
		Antenna:      radio.NewLairdGD24BP(),
		BoresightRad: -1.5707963,
		TxPowerDBm:   17,
		ExtraLossDB:  24,
	}
	if err := ch.AddEndpoint(apEP); err != nil {
		t.Fatal(err)
	}
	sink := &recSink{}
	mac.NewStation(medium, mac.StationConfig{
		Addr:     packet.APMAC(0),
		Aliases:  []packet.MACAddr{bssid},
		Endpoint: apEP,
	}).SetSink(sink)

	clEP := &radio.Endpoint{
		Name:       "car1",
		Trace:      mobility.Stationary{At: mobility.Point{X: 20}},
		TxPowerDBm: 15,
	}
	if err := ch.AddEndpoint(clEP); err != nil {
		t.Fatal(err)
	}
	st := mac.NewStation(medium, mac.StationConfig{Addr: packet.ClientMAC(1), Endpoint: clEP})
	cl := New(DefaultConfig(1, bssid), eng, st)
	return &harness{eng: eng, medium: medium, cl: cl, apSink: sink}
}

func TestUplinkDelivery(t *testing.T) {
	h := newHarness(t)
	for i := 0; i < 20; i++ {
		h.cl.SendUplink(&packet.Packet{FlowID: 1, Seq: uint32(i), IPID: uint16(i), Bytes: 1000})
	}
	h.eng.RunUntil(sim.Second)
	got := 0
	for _, ev := range h.apSink.frames {
		got += len(ev.Decoded)
	}
	if got < 19 {
		t.Errorf("AP decoded %d/20 uplink MPDUs", got)
	}
	if h.cl.Stats.UplinkDelivered < 19 {
		t.Errorf("client counted %d delivered", h.cl.Stats.UplinkDelivered)
	}
	if h.cl.hasWork() {
		t.Errorf("%d fresh + %d retry packets still queued after delivery", len(h.cl.uplinkQ), len(h.cl.retryQ))
	}
}

func TestKeepaliveProbes(t *testing.T) {
	h := newHarness(t)
	h.cl.StartKeepalive(10 * sim.Millisecond)
	h.eng.RunUntil(sim.Second)
	nulls := 0
	for _, ev := range h.apSink.frames {
		for _, mp := range ev.Decoded {
			if mp.Pkt != nil && mp.Pkt.Kind == packet.KindNull {
				nulls++
			}
		}
	}
	// ~100 keepalives in a second (minus MAC latency slack).
	if nulls < 80 {
		t.Errorf("AP heard %d keepalive nulls in 1 s", nulls)
	}
	if h.cl.StartKeepalive(0); false {
		t.Error("unreachable")
	}
}

func TestKeepaliveYieldsToTraffic(t *testing.T) {
	h := newHarness(t)
	h.cl.StartKeepalive(sim.Millisecond)
	// With a busy uplink queue (enough traffic to stay backlogged for the
	// whole window), keepalives must not be injected.
	for i := 0; i < 3000; i++ {
		h.cl.SendUplink(&packet.Packet{FlowID: 1, Seq: uint32(i), IPID: uint16(i), Bytes: 1400})
	}
	h.eng.RunUntil(200 * sim.Millisecond)
	nulls := 0
	for _, ev := range h.apSink.frames {
		for _, mp := range ev.Decoded {
			if mp.Pkt != nil && mp.Pkt.Kind == packet.KindNull {
				nulls++
			}
		}
	}
	if nulls > 20 {
		t.Errorf("%d keepalives injected while queue busy", nulls)
	}
}

func mkRx(idx uint16, at sim.Time) *mac.RxEvent {
	return &mac.RxEvent{
		At:      at,
		Kind:    mac.KindData,
		Decoded: []*mac.MPDU{{Pkt: &packet.Packet{Index: idx, Bytes: 1400, FlowID: 1}}},
	}
}

func TestDownlinkDedupTTL(t *testing.T) {
	h := newHarness(t)
	var got []uint16
	h.cl.OnDownlink = func(p *packet.Packet, _ sim.Time) { got = append(got, p.Index) }

	h.cl.OnFrame(mkRx(7, sim.Millisecond))
	h.cl.OnFrame(mkRx(7, 2*sim.Millisecond)) // duplicate within TTL
	if len(got) != 1 || h.cl.Stats.DownlinkDupes != 1 {
		t.Fatalf("dedup failed: got=%v dupes=%d", got, h.cl.Stats.DownlinkDupes)
	}
	// Same index long after the TTL: a wrapped, fresh packet — accepted.
	h.cl.OnFrame(mkRx(7, sim.Second))
	if len(got) != 2 {
		t.Error("TTL-expired index still treated as duplicate")
	}
}

func TestDownlinkOverheardIgnored(t *testing.T) {
	h := newHarness(t)
	n := 0
	h.cl.OnDownlink = func(*packet.Packet, sim.Time) { n++ }
	ev := mkRx(1, sim.Millisecond)
	ev.Overheard = true
	h.cl.OnFrame(ev)
	if n != 0 {
		t.Error("overheard frame delivered up the stack")
	}
}

// A beacon reaches the beacon hook; a management frame reaches no hook.
func TestBeaconAndMgmtHooks(t *testing.T) {
	h := newHarness(t)
	var beacons, downlinks int
	h.cl.OnBeacon = func(packet.MACAddr, float64, sim.Time) { beacons++ }
	h.cl.OnDownlink = func(*packet.Packet, sim.Time) { downlinks++ }
	h.cl.OnFrame(&mac.RxEvent{Kind: mac.KindBeacon, From: packet.APMAC(0), RSSIdBm: -60})
	h.cl.OnFrame(&mac.RxEvent{Kind: mac.KindMgmt})
	if beacons != 1 || downlinks != 0 {
		t.Errorf("beacons=%d downlinks=%d", beacons, downlinks)
	}
	if h.cl.Stats.Beacons != 1 {
		t.Error("beacon stat missing")
	}
}

func TestSetDest(t *testing.T) {
	h := newHarness(t)
	if h.cl.dest != bssid {
		t.Fatal("initial dest wrong")
	}
	h.cl.SetDest(packet.APMAC(3))
	if h.cl.dest != packet.APMAC(3) {
		t.Error("SetDest failed")
	}
}

func TestBuildFrameRespectsTXOPBudget(t *testing.T) {
	h := newHarness(t)
	for i := 0; i < 100; i++ {
		h.cl.SendUplink(&packet.Packet{FlowID: 1, Seq: uint32(i), IPID: uint16(i), Bytes: 1400})
	}
	fr := h.cl.BuildFrame()
	if fr == nil {
		t.Fatal("no frame built")
	}
	var sizes []int
	bytes := 0
	for _, mp := range fr.MPDUs {
		sizes = append(sizes, mp.Bytes)
		bytes += mp.Bytes
	}
	// The frame must fit the 4 ms TXOP at its chosen MCS.
	if air := phy.AMPDUDuration(fr.MCS, sizes); air > 4100*sim.Microsecond {
		t.Errorf("frame airtime %v exceeds the TXOP limit (%d MPDUs, %d B)", air, len(fr.MPDUs), bytes)
	}
}
