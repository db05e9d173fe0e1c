package backhaul

import (
	"testing"

	"wgtt/internal/packet"
	"wgtt/internal/sim"
)

type recorder struct {
	msgs []packet.Message
	from []packet.IPv4Addr
	at   []sim.Time
	eng  *sim.Engine
}

// keep returns what a recording node may hold of msg: msg itself, or a copy
// when it is one of the envelopes a Node must not retain.
func keep(msg packet.Message) packet.Message {
	switch m := msg.(type) {
	case *packet.DownData:
		cp := *m
		return &cp
	case *packet.CSIReport:
		cp := *m
		return &cp
	case *packet.BlockAckFwd:
		cp := *m
		return &cp
	}
	return msg
}

func (r *recorder) HandleBackhaul(from packet.IPv4Addr, msg packet.Message) {
	r.msgs = append(r.msgs, keep(msg))
	r.from = append(r.from, from)
	r.at = append(r.at, r.eng.Now())
}

func TestSendLatencyAndDelivery(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 200*sim.Microsecond)
	rec := &recorder{eng: eng}
	sw.Attach(packet.APIP(1), rec)

	msg := &packet.Stop{Client: packet.ClientMAC(1), NextAP: packet.APIP(2), SwitchID: 5}
	if err := sw.Send(packet.ControllerIP, packet.APIP(1), msg); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(rec.msgs) != 1 {
		t.Fatalf("delivered %d messages", len(rec.msgs))
	}
	if rec.at[0] != 200*sim.Microsecond {
		t.Errorf("delivered at %v, want 200µs", rec.at[0])
	}
	if rec.from[0] != packet.ControllerIP {
		t.Errorf("from = %v", rec.from[0])
	}
	got, ok := rec.msgs[0].(*packet.Stop)
	if !ok || got.SwitchID != 5 || got.Client != packet.ClientMAC(1) {
		t.Errorf("message mangled: %+v", rec.msgs[0])
	}
}

func TestSendUnattached(t *testing.T) {
	sw := NewSwitch(sim.NewEngine(), sim.Microsecond)
	if err := sw.Send(packet.ControllerIP, packet.APIP(9), &packet.Stop{}); err == nil {
		t.Error("send to unattached address succeeded")
	}
}

func TestVerifyRoundTripsWire(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, sim.Microsecond)
	rec := &recorder{eng: eng}
	sw.Attach(packet.APIP(1), rec)
	orig := &packet.Start{Client: packet.ClientMAC(2), Index: 777, SwitchID: 3}
	if err := sw.Send(packet.APIP(0), packet.APIP(1), orig); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if rec.msgs[0] == packet.Message(orig) {
		t.Error("the switch should deliver a decoded copy, not the original pointer")
	}
	got := rec.msgs[0].(*packet.Start)
	if *got != *orig {
		t.Errorf("decoded copy differs: %+v vs %+v", got, orig)
	}
	_, _, bytes := sw.Stats()
	if bytes == 0 {
		t.Error("byte accounting missing")
	}
}

func TestDropHook(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, sim.Microsecond)
	rec := &recorder{eng: eng}
	sw.Attach(packet.APIP(1), rec)
	sw.Drop = func(packet.IPv4Addr, packet.Message) bool { return true }
	_ = sw.Send(packet.ControllerIP, packet.APIP(1), &packet.Stop{})
	eng.Run()
	if len(rec.msgs) != 0 {
		t.Error("dropped message was delivered")
	}
	sent, dropped, _ := sw.Stats()
	if sent != 0 || dropped != 1 {
		t.Errorf("stats = %d sent, %d dropped", sent, dropped)
	}
}

func TestDropTypesRate(t *testing.T) {
	rnd := sim.NewRNG(1).Stream("drop")
	drop := DropTypes(0.3, rnd, packet.MsgStop)
	n, dropped := 10000, 0
	for i := 0; i < n; i++ {
		if drop(packet.APIP(1), &packet.Stop{}) {
			dropped++
		}
	}
	rate := float64(dropped) / float64(n)
	if rate < 0.27 || rate > 0.33 {
		t.Errorf("drop rate = %v, want ≈ 0.3", rate)
	}
}

func TestDropTypesSelective(t *testing.T) {
	rnd := sim.NewRNG(2).Stream("drop")
	drop := DropTypes(1.0, rnd, packet.MsgStop)
	if !drop(packet.APIP(1), &packet.Stop{}) {
		t.Error("Stop not dropped")
	}
	if drop(packet.APIP(1), &packet.Start{}) {
		t.Error("Start dropped despite not being listed")
	}
}

func TestDelayHookAddsLatency(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 200*sim.Microsecond)
	rec := &recorder{eng: eng}
	sw.Attach(packet.APIP(1), rec)
	sw.Delay = func(_ packet.IPv4Addr, m packet.Message) sim.Time {
		if m.Type() == packet.MsgStop {
			return 5 * sim.Millisecond
		}
		return 0
	}
	_ = sw.Send(packet.ControllerIP, packet.APIP(1), &packet.Stop{})
	_ = sw.Send(packet.ControllerIP, packet.APIP(1), &packet.Start{})
	eng.Run()
	if len(rec.msgs) != 2 {
		t.Fatalf("delivered %d messages", len(rec.msgs))
	}
	// The undelayed Start arrives first, the spiked Stop 5 ms later.
	if rec.msgs[0].Type() != packet.MsgStart || rec.at[0] != 200*sim.Microsecond {
		t.Errorf("undelayed message at %v (%v)", rec.at[0], rec.msgs[0].Type())
	}
	if rec.msgs[1].Type() != packet.MsgStop || rec.at[1] != 200*sim.Microsecond+5*sim.Millisecond {
		t.Errorf("delayed message at %v (%v)", rec.at[1], rec.msgs[1].Type())
	}
}

// The health probe/ack pair must survive the wire round trip like
// every other backhaul message.
func TestVerifyHealthMessages(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, sim.Microsecond)
	rec := &recorder{eng: eng}
	sw.Attach(packet.APIP(1), rec)
	probe := &packet.HealthProbe{Seq: 7, At: 123}
	ack := &packet.HealthAck{AP: packet.APIP(1), Seq: 7, At: 123}
	if err := sw.Send(packet.ControllerIP, packet.APIP(1), probe); err != nil {
		t.Fatal(err)
	}
	if err := sw.Send(packet.APIP(1), packet.APIP(1), ack); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(rec.msgs) != 2 {
		t.Fatalf("delivered %d messages", len(rec.msgs))
	}
	gotProbe := rec.msgs[0].(*packet.HealthProbe)
	if gotProbe == probe || *gotProbe != *probe {
		t.Errorf("probe round trip: got %+v (same pointer: %v)", gotProbe, gotProbe == probe)
	}
	gotAck := rec.msgs[1].(*packet.HealthAck)
	if gotAck == ack || *gotAck != *ack {
		t.Errorf("ack round trip: got %+v (same pointer: %v)", gotAck, gotAck == ack)
	}
}

func TestAttachNilPanics(t *testing.T) {
	sw := NewSwitch(sim.NewEngine(), sim.Microsecond)
	defer func() {
		if recover() == nil {
			t.Error("nil node accepted")
		}
	}()
	sw.Attach(packet.APIP(0), nil)
}

func TestNodeFunc(t *testing.T) {
	called := false
	var n Node = NodeFunc(func(packet.IPv4Addr, packet.Message) { called = true })
	n.HandleBackhaul(packet.ControllerIP, &packet.Stop{})
	if !called {
		t.Error("NodeFunc not invoked")
	}
}

// Byte accounting equals the messages' envelope sizes.
func TestByteAccountingUnconditional(t *testing.T) {
	msgs := []packet.Message{
		&packet.Stop{Client: packet.ClientMAC(1), NextAP: packet.APIP(1), SwitchID: 1},
		&packet.Start{Client: packet.ClientMAC(1), Index: 9, SwitchID: 1},
		&packet.CSIReport{Client: packet.ClientMAC(1), AP: packet.APIP(0)},
	}
	want := uint64(0)
	for _, m := range msgs {
		want += uint64(3 + m.WireSize())
	}
	eng := sim.NewEngine()
	sw := NewSwitch(eng, sim.Microsecond)
	sw.Attach(packet.APIP(1), &recorder{eng: eng})
	for _, m := range msgs {
		if err := sw.Send(packet.ControllerIP, packet.APIP(1), m); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	_, _, bytes := sw.Stats()
	if bytes != want {
		t.Errorf("bytes = %d, want %d", bytes, want)
	}
}

// Dropped messages never hit the wire, so they must not be counted.
func TestByteAccountingSkipsDropped(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, sim.Microsecond)
	sw.Attach(packet.APIP(1), &recorder{eng: eng})
	sw.Drop = func(packet.IPv4Addr, packet.Message) bool { return true }
	_ = sw.Send(packet.ControllerIP, packet.APIP(1), &packet.Stop{})
	if _, _, bytes := sw.Stats(); bytes != 0 {
		t.Errorf("dropped message accounted %d bytes", bytes)
	}
}
