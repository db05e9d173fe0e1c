package baseline

import (
	"math"
	"testing"

	"wgtt/internal/ap"
	"wgtt/internal/backhaul"
	"wgtt/internal/client"
	"wgtt/internal/mac"
	"wgtt/internal/mobility"
	"wgtt/internal/packet"
	"wgtt/internal/radio"
	"wgtt/internal/sim"
)

type harness struct {
	eng    *sim.Engine
	bh     *backhaul.Switch
	net    *Network
	aps    []*ap.AP
	cl     *client.Client
	roamer *Roamer
	idx    uint16
}

// newHarness wires two baseline APs 15 m apart and a client that starts
// under AP0, over a fade-free channel.
func newHarness(t *testing.T, clientTrace mobility.Trace, speedHint float64) *harness {
	t.Helper()
	eng := sim.NewEngine()
	rng := sim.NewRNG(9)
	params := radio.DefaultParams()
	params.NoFading = true
	ch := radio.NewChannel(params, rng)
	medium := mac.NewMedium(eng, ch, rng.Stream("mac"))
	bh := backhaul.NewSwitch(eng, 200*sim.Microsecond)

	h := &harness{eng: eng, bh: bh}
	for i := 0; i < 2; i++ {
		cfg := ap.DefaultConfig(i, packet.APMAC(i)) // own BSS per AP
		cfg.BAForwarding = false
		ep := &radio.Endpoint{
			Name:         cfg.Name,
			Trace:        mobility.Stationary{At: mobility.Point{X: 20 + float64(i)*15, Y: mobility.APSetback}},
			Antenna:      radio.NewLairdGD24BP(),
			BoresightRad: -math.Pi / 2,
			TxPowerDBm:   17,
			ExtraLossDB:  24,
		}
		if err := ch.AddEndpoint(ep); err != nil {
			t.Fatal(err)
		}
		st := mac.NewStation(medium, mac.StationConfig{Addr: cfg.MAC, Endpoint: ep})
		h.aps = append(h.aps, ap.New(cfg, eng, bh, st, packet.ControllerIP, rng.Stream(cfg.Name)))
	}
	h.net = NewNetwork(eng, bh, h.aps)
	h.net.StartBeacons()

	clEP := &radio.Endpoint{Name: "car1", Trace: clientTrace, TxPowerDBm: 15, SpeedHintMS: speedHint}
	if err := ch.AddEndpoint(clEP); err != nil {
		t.Fatal(err)
	}
	st := mac.NewStation(medium, mac.StationConfig{Addr: packet.ClientMAC(1), Endpoint: clEP})
	h.cl = client.New(client.DefaultConfig(1, packet.APMAC(0)), eng, st)
	h.net.Associate(h.cl.Config().MAC, h.cl.Config().IP, 0)
	h.roamer = NewRoamer(eng, h.cl, h.net, 0)
	return h
}

func (h *harness) push(n int) {
	for i := 0; i < n; i++ {
		p := &packet.Packet{FlowID: 1, Seq: uint32(i), IPID: uint16(i), ClientMAC: h.cl.Config().MAC, Bytes: 1400}
		if err := h.net.SendDownlink(p, &h.idx); err != nil {
			panic(err)
		}
	}
}

func TestBeaconsReachClient(t *testing.T) {
	h := newHarness(t, mobility.Stationary{At: mobility.Point{X: 20}}, 0)
	beacons, roam := 0, h.cl.OnBeacon
	h.cl.OnBeacon = func(from packet.MACAddr, rssiDBm float64, at sim.Time) {
		beacons++
		roam(from, rssiDBm, at)
	}
	h.eng.RunUntil(sim.Second)
	// Two APs at 100 ms each ⇒ ~20 beacons/second.
	if beacons < 15 {
		t.Errorf("client heard %d beacons in 1 s", beacons)
	}
}

func TestStationaryClientDoesNotRoam(t *testing.T) {
	h := newHarness(t, mobility.Stationary{At: mobility.Point{X: 20}}, 0)
	h.eng.RunUntil(3 * sim.Second)
	if len(h.net.Handovers) != 0 {
		t.Errorf("client under its AP roamed %d times", len(h.net.Handovers))
	}
	if h.net.CurrentAP(h.cl.Config().MAC) != 0 {
		t.Error("association moved without cause")
	}
}

func TestDriveTriggersRoam(t *testing.T) {
	// Drive from AP0's cell into AP1's at 15 mph.
	h := newHarness(t, mobility.DriveBy(18, 0, 15), mobility.MPH(15))
	h.eng.RunUntil(4 * sim.Second)
	if len(h.net.Handovers) == 0 {
		t.Fatal("client never roamed while leaving its cell")
	}
	if rec := h.net.Handovers[0]; rec.Client != h.cl.Config().MAC || rec.From != 0 || rec.To != 1 || rec.At <= 0 {
		t.Errorf("handover record = %+v, want client's 0 -> 1", rec)
	}
	if h.roamer.current != 1 {
		t.Errorf("roamer current = %d, want 1", h.roamer.current)
	}
	if h.net.CurrentAP(h.cl.Config().MAC) != 1 {
		t.Error("network routing did not follow the roam")
	}
	h.cl.SendUplink(&packet.Packet{Bytes: 100})
	if fr := h.cl.BuildFrame(); fr == nil || fr.To != packet.APMAC(1) {
		t.Error("client uplink not retargeted")
	}
}

func TestDownlinkFollowsAssociation(t *testing.T) {
	h := newHarness(t, mobility.DriveBy(18, 0, 15), mobility.MPH(15))
	var got int
	h.cl.OnDownlink = func(*packet.Packet, sim.Time) { got++ }
	// Trickle packets across the whole drive.
	var tick func()
	sent := 0
	tick = func() {
		if sent < 400 {
			h.push(1)
			sent++
			h.eng.After(10*sim.Millisecond, tick)
		}
	}
	h.eng.After(sim.Millisecond, tick)
	h.eng.RunUntil(6 * sim.Second)
	// The late roam strands part of the old AP's backlog (the §3.1.2
	// pathology this baseline exists to demonstrate), but most packets
	// sent after the reroute must arrive.
	if got < 220 {
		t.Errorf("delivered %d/400 packets across a roam", got)
	}
	if len(h.net.Handovers) == 0 {
		t.Error("drive did not roam")
	}
}

func TestSendDownlinkUnknownClient(t *testing.T) {
	h := newHarness(t, mobility.Stationary{At: mobility.Point{X: 20}}, 0)
	var idx uint16
	err := h.net.SendDownlink(&packet.Packet{ClientMAC: packet.ClientMAC(9)}, &idx)
	if err == nil {
		t.Error("unknown client accepted")
	}
}

func TestClientAssociatedIdempotent(t *testing.T) {
	h := newHarness(t, mobility.Stationary{At: mobility.Point{X: 20}}, 0)
	h.net.ClientAssociated(h.cl.Config().MAC, 0) // same AP: no-op
	if len(h.net.Handovers) != 0 {
		t.Error("no-op reassociation recorded a handover")
	}
	h.net.ClientAssociated(h.cl.Config().MAC, 1)
	if len(h.net.Handovers) != 1 || h.net.CurrentAP(h.cl.Config().MAC) != 1 {
		t.Error("handover not applied")
	}
	// The old AP lingers, then stops serving: a serving AP puts the packets
	// it is handed on the air, a quenched one sits on them.
	feed := func(apID int) {
		p := &packet.Packet{ClientMAC: h.cl.Config().MAC, Index: h.idx, Bytes: 1400}
		h.idx = packet.NextIndex(h.idx)
		_ = h.bh.Send(packet.ControllerIP, packet.APIP(apID), &packet.DownData{Pkt: p})
	}
	sentBy := func(apID int) uint64 { return h.aps[apID].Stats.DownSent }
	feed(0)
	h.eng.RunUntil(h.eng.Now() + 50*sim.Millisecond)
	if sentBy(0) == 0 {
		t.Error("old AP quenched before the linger window")
	}
	h.eng.RunUntil(h.eng.Now() + 200*sim.Millisecond)
	before := sentBy(0)
	feed(0)
	feed(1)
	h.eng.RunUntil(h.eng.Now() + 50*sim.Millisecond)
	if sentBy(0) != before {
		t.Error("old AP still serving after linger")
	}
	if sentBy(1) == 0 {
		t.Error("new AP not serving")
	}
}

func TestRoamerHysteresisBounds(t *testing.T) {
	h := newHarness(t, mobility.Stationary{At: mobility.Point{X: 50}}, 0) // between/behind cells: weak RSSI
	h.eng.RunUntil(5 * sim.Second)
	// Even with a weak link, roams are rate-limited by hysteresis.
	maxRoams := uint64(5*sim.Second/hysteresis) + 1
	if attempts := uint64(len(h.net.Handovers)) + h.roamer.RoamFailures; attempts > maxRoams {
		t.Errorf("roam attempts = %d, exceeds hysteresis bound %d", attempts, maxRoams)
	}
}
