package udp

import (
	"net"
	"sync"
	"testing"
	"time"

	"wgtt/internal/backhaul"
	"wgtt/internal/packet"
	"wgtt/internal/runtime"
)

// listen binds a loopback UDP socket on an ephemeral port.
func listen(t *testing.T) *net.UDPConn {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// collector records deliveries behind a mutex and signals each arrival.
type collector struct {
	mu    sync.Mutex
	from  []packet.IPv4Addr
	types []packet.MsgType
	ch    chan struct{}
}

func newCollector() *collector { return &collector{ch: make(chan struct{}, 64)} }

func (c *collector) HandleBackhaul(from packet.IPv4Addr, msg packet.Message) {
	c.mu.Lock()
	c.from = append(c.from, from)
	c.types = append(c.types, msg.Type())
	c.mu.Unlock()
	c.ch <- struct{}{}
}

func (c *collector) wait(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-c.ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for delivery %d/%d", i+1, n)
		}
	}
}

// newNode builds one live node's backhaul: a wall, its zero-latency switch
// and the UDP port over conn (nil where a test only feeds receive).
func newNode(t *testing.T, conn *net.UDPConn, table map[packet.IPv4Addr]string) (*runtime.Wall, *backhaul.Switch, *Port) {
	t.Helper()
	w := runtime.NewWall()
	sw := backhaul.NewSwitch(w.Eng, 0)
	p, err := New(w, sw, conn, table)
	if err != nil {
		t.Fatal(err)
	}
	return w, sw, p
}

// drain stops w and runs what was scheduled or posted to it on the calling
// goroutine: the first pass schedules the posts, the second fires them.
func drain(w *runtime.Wall) {
	w.Stop()
	w.Run()
	w.Run()
}

// Two nodes over loopback: a message sent on one must arrive at the node
// attached to the other, decoded to the same typed struct.
func TestSendAcrossSockets(t *testing.T) {
	connA, connB := listen(t), listen(t)
	ctl, ap0 := packet.ControllerIP, packet.APIP(0)
	_, swA, pa := newNode(t, connA, map[packet.IPv4Addr]string{ap0: connB.LocalAddr().String()})
	wB, swB, pb := newNode(t, connB, map[packet.IPv4Addr]string{ctl: connA.LocalAddr().String()})
	rxB := newCollector()
	swB.Attach(ap0, rxB)
	pb.Start()
	go wB.Run()
	defer wB.Stop()
	defer pa.Close()
	defer pb.Close()

	stop := &packet.Stop{Client: packet.ClientMAC(1), NextAP: packet.APIP(1), SwitchID: 7}
	if err := swA.Send(ctl, ap0, stop); err != nil {
		t.Fatal(err)
	}
	rxB.wait(t, 1)
	rxB.mu.Lock()
	defer rxB.mu.Unlock()
	if rxB.from[0] != ctl || rxB.types[0] != packet.MsgStop {
		t.Fatalf("got %v from %v, want MsgStop from controller", rxB.types[0], rxB.from[0])
	}
	if sent, _, bytes := swA.Stats(); sent != 1 || bytes != uint64(3+stop.WireSize()) {
		t.Fatalf("sender switch: %d sent, %d bytes", sent, bytes)
	}
	if st := pb.Stats(); st.DecodeErrs != 0 || st.Unroutable != 0 {
		t.Fatalf("receiver port stats = %+v", st)
	}
}

// silent fails the test if a datagram reaches sink within 50 ms.
func silent(t *testing.T, sink *net.UDPConn) {
	t.Helper()
	if err := sink.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if n, err := sink.Read(make([]byte, maxDatagram)); err == nil {
		t.Fatalf("a %d-byte datagram reached the socket", n)
	}
}

// A target attached to the node's own switch is delivered by the switch,
// through the codec, and never reaches the socket.
func TestLocalDeliveryPassesCodec(t *testing.T) {
	sink := listen(t)
	defer sink.Close()
	w, sw, p := newNode(t, listen(t), map[packet.IPv4Addr]string{packet.APIP(1): sink.LocalAddr().String()})
	defer p.Close()
	rx := newCollector()
	sw.Attach(packet.APIP(0), rx)
	if err := sw.Send(packet.ControllerIP, packet.APIP(0), &packet.HealthProbe{Seq: 3}); err != nil {
		t.Fatal(err)
	}
	drain(w)
	rx.wait(t, 1)
	if sent, _, _ := sw.Stats(); sent != 1 {
		t.Fatalf("switch sent %d, want one local copy", sent)
	}
	silent(t, sink)
}

// A target neither attached nor in the peer table is an error for Send and
// skipped by SendMany; nothing is sent.
func TestSendUnroutable(t *testing.T) {
	_, sw, p := newNode(t, listen(t), nil)
	defer p.Close()
	if err := sw.Send(packet.ControllerIP, packet.APIP(5), &packet.HealthProbe{}); err == nil {
		t.Fatal("send to unknown address succeeded")
	}
	sw.SendMany(packet.ControllerIP, []packet.IPv4Addr{packet.APIP(5)}, &packet.HealthProbe{})
	if sent, _, _ := sw.Stats(); sent != 0 {
		t.Fatalf("switch sent %d", sent)
	}
}

// datagram builds one datagram on the port's wire format: [from][to], then
// the payload parts.
func datagram(from, to packet.IPv4Addr, parts ...[]byte) []byte {
	b := append(append([]byte{}, from[:]...), to[:]...)
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

// Malformed datagrams must be counted and dropped, never crash the reader,
// and the node must keep delivering afterwards.
func TestMalformedDatagramsSurvived(t *testing.T) {
	conn := listen(t)
	w, sw, p := newNode(t, conn, nil)
	rx := newCollector()
	ap0 := packet.APIP(0)
	sw.Attach(ap0, rx)
	p.Start()
	defer p.Close()
	go w.Run()
	defer w.Stop()

	tx := listen(t)
	defer tx.Close()
	dst := conn.LocalAddr().(*net.UDPAddr)
	ctl := packet.ControllerIP
	bad := [][]byte{
		{},        // empty
		{1, 2, 3}, // shorter than sender and target
		datagram(ctl, ap0, []byte{byte(packet.MsgStop), 0}),      // truncated envelope
		datagram(ctl, ap0, []byte{0xff, 0x00, 0x04, 1, 2, 3, 4}), // unknown type
	}
	for _, b := range bad {
		if _, err := tx.WriteToUDP(b, dst); err != nil {
			t.Fatal(err)
		}
	}
	// A good message after the garbage proves the reader survived.
	good := datagram(ctl, ap0, packet.Encode(&packet.HealthProbe{Seq: 9}))
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := tx.WriteToUDP(good, dst); err != nil {
			t.Fatal(err)
		}
		select {
		case <-rx.ch:
		case <-time.After(100 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("reader never delivered after malformed datagrams")
			}
			continue
		}
		break
	}
	if st := p.Stats(); st.DecodeErrs < uint64(len(bad)) {
		// UDP on loopback does not drop, and the engine handles posts in
		// order, so all four are counted by the time the good one arrived.
		t.Fatalf("DecodeErrs = %d, want >= %d", st.DecodeErrs, len(bad))
	}
}

// Every malformed-message class must increment DecodeErrs exactly once and
// deliver nothing: truncated envelope, lying length field, unknown type, and
// trailing bytes after a well-formed message (the codec accepts exactly one
// message, so a datagram carries exactly one).
func TestDecodeErrorAccountingPerClass(t *testing.T) {
	w, sw, p := newNode(t, nil, nil)
	rx := newCollector()
	sw.Attach(packet.APIP(0), rx)
	to := packet.APIP(0)

	valid := packet.Encode(&packet.HealthProbe{Seq: 4, At: 1})
	cases := []struct {
		name string
		raw  []byte
	}{
		{"truncated envelope", []byte{byte(packet.MsgStop), 0x00}},
		{"length field lies", []byte{byte(packet.MsgStop), 0xff, 0xff, 1, 2, 3}},
		{"unknown type", []byte{0xee, 0x00, 0x02, 7, 7}},
		{"trailing garbage", append(append([]byte{}, valid...), 0xab)},
		{"packet index past 12 bits", packet.Encode(&packet.DownData{APDst: to, Pkt: &packet.Packet{Index: 4096}})},
		{"start index past 12 bits", packet.Encode(&packet.Start{Client: packet.ClientMAC(1), Index: 4101})},
		{"commit next index past 12 bits", packet.Encode(&packet.DomainHandoffCommit{NextIndex: 0xffff})},
		{"Block ACK SSN past 12 bits", packet.Encode(&packet.BlockAckFwd{Client: packet.ClientMAC(1), SSN: 4096})},
	}
	for i, tc := range cases {
		p.receive(datagram(packet.ControllerIP, to, tc.raw))
		drain(w)
		if st := p.Stats(); st.DecodeErrs != uint64(i+1) {
			t.Fatalf("%s: DecodeErrs = %d, want %d", tc.name, st.DecodeErrs, i+1)
		}
	}
	// The exact same bytes minus the trailing garbage must deliver.
	p.receive(datagram(packet.ControllerIP, to, valid))
	drain(w)
	rx.wait(t, 1)
	if st := p.Stats(); st.DecodeErrs != uint64(len(cases)) || st.Unroutable != 0 {
		t.Fatalf("stats = %+v, want DecodeErrs %d", st, len(cases))
	}
	rx.mu.Lock()
	defer rx.mu.Unlock()
	if len(rx.types) != 1 || rx.types[0] != packet.MsgHealthProbe {
		t.Fatalf("deliveries = %v, want exactly one health-probe", rx.types)
	}
}

// A datagram addressed to a virtual node this node does not host is
// counted as unroutable and delivers nothing.
func TestUnroutableInbound(t *testing.T) {
	w, sw, p := newNode(t, nil, nil)
	delivered := 0
	sw.Attach(packet.APIP(0), backhaul.NodeFunc(func(packet.IPv4Addr, packet.Message) { delivered++ }))
	p.receive(datagram(packet.ControllerIP, packet.APIP(99), packet.Encode(&packet.HealthProbe{Seq: 1})))
	drain(w)
	if st := p.Stats(); st.Unroutable != 1 || st.DecodeErrs != 0 || delivered != 0 {
		t.Fatalf("stats = %+v, %d delivered; want exactly one unroutable copy", st, delivered)
	}
}

// Receiving a datagram allocates nothing beyond the message the codec
// decodes: the inbound datagram, its payload buffer and the switch's
// delivery are pooled. Stop makes each Run one pass, which fires
// the previous datagram's posted delivery (returning both to their pools)
// and schedules this one.
func TestReceiveAllocsOnlyTheDecodedMessage(t *testing.T) {
	w, sw, p := newNode(t, nil, nil)
	w.Stop()
	delivered := 0
	sw.Attach(packet.APIP(0), backhaul.NodeFunc(func(packet.IPv4Addr, packet.Message) { delivered++ }))
	payload := packet.Encode(&packet.Stop{Client: packet.ClientMAC(1), NextAP: packet.APIP(1), SwitchID: 7})
	dg := datagram(packet.ControllerIP, packet.APIP(0), payload)
	recv := func() {
		p.receive(dg)
		w.Run()
	}
	recv()
	recv()
	got := testing.AllocsPerRun(1000, recv)
	want := testing.AllocsPerRun(1000, func() { _, _ = packet.Decode(payload) })
	if got > want {
		t.Fatalf("receive allocates %.1f/op, packet.Decode alone %.1f/op", got, want)
	}
	if delivered == 0 {
		t.Fatal("no delivery fired")
	}
}

// The concurrency left in a live node: goroutines post sends — local,
// fanned out and remote — onto the engines while node A's reader goroutine
// posts inbound datagrams onto the same engine; every copy for A's local
// node arrives.
func TestConcurrentSendAndReceive(t *testing.T) {
	connA, connB := listen(t), listen(t)
	ctl, ap0, ap1 := packet.ControllerIP, packet.APIP(0), packet.APIP(1)
	wA, swA, pa := newNode(t, connA, map[packet.IPv4Addr]string{ap1: connB.LocalAddr().String()})
	wB, swB, pb := newNode(t, connB, map[packet.IPv4Addr]string{ap0: connA.LocalAddr().String()})
	rx := newCollector()
	swA.Attach(ap0, rx)
	pa.Start()
	defer pa.Close()
	defer pb.Close()
	go wA.Run()
	defer wA.Stop()
	go wB.Run()
	defer wB.Stop()

	const senders, per = 4, 25
	msg := &packet.HealthProbe{Seq: 1}
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < per; k++ {
				wA.Post(func() {
					if err := swA.Send(ctl, ap0, msg); err != nil {
						t.Error(err)
					}
					swA.SendMany(ctl, []packet.IPv4Addr{ap0, ap1}, msg)
				})
				wB.Post(func() {
					if err := swB.Send(ap1, ap0, msg); err != nil {
						t.Error(err)
					}
				})
			}
		}()
	}
	rx.wait(t, 3*senders*per)
	wg.Wait()
}

// The port is the switch's remote port.
var _ backhaul.Port = (*Port)(nil)
