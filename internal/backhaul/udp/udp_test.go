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

// Two fabrics over loopback: a message sent on one must arrive at the node
// attached to the other, decoded to the same typed struct.
func TestSendAcrossSockets(t *testing.T) {
	connA, connB := listen(t), listen(t)
	wA, wB := runtime.NewWall(), runtime.NewWall()
	go wA.Run()
	go wB.Run()
	defer wA.Stop()
	defer wB.Stop()

	ctl := packet.ControllerIP
	ap0 := packet.APIP(0)
	fa, err := New(wA, connA, map[packet.IPv4Addr]string{ap0: connB.LocalAddr().String()})
	if err != nil {
		t.Fatal(err)
	}
	fb, err := New(wB, connB, map[packet.IPv4Addr]string{ctl: connA.LocalAddr().String()})
	if err != nil {
		t.Fatal(err)
	}
	rxA, rxB := newCollector(), newCollector()
	fa.Attach(ctl, rxA)
	fb.Attach(ap0, rxB)
	fa.Start()
	fb.Start()
	defer fa.Close()
	defer fb.Close()

	stop := &packet.Stop{Client: packet.ClientMAC(1), NextAP: packet.APIP(1), SwitchID: 7}
	if err := fa.Send(ctl, ap0, stop); err != nil {
		t.Fatal(err)
	}
	rxB.wait(t, 1)
	rxB.mu.Lock()
	defer rxB.mu.Unlock()
	if rxB.from[0] != ctl || rxB.types[0] != packet.MsgStop {
		t.Fatalf("got %v from %v, want MsgStop from controller", rxB.types[0], rxB.from[0])
	}
	st := fa.Stats()
	if st.Sent != 1 || st.Bytes != uint64(3+stop.WireSize()) {
		t.Fatalf("sender stats = %+v", st)
	}
	if got := fb.Stats(); got.Received != 1 {
		t.Fatalf("receiver stats = %+v", got)
	}
}

// Loopback to a node on the same fabric must still round-trip the codec.
func TestLocalDeliveryPassesCodec(t *testing.T) {
	conn := listen(t)
	w := runtime.NewWall()
	go w.Run()
	defer w.Stop()
	f, err := New(w, conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	rx := newCollector()
	f.Attach(packet.APIP(0), rx)
	f.Start()
	defer f.Close()
	if err := f.Send(packet.ControllerIP, packet.APIP(0), &packet.HealthProbe{Seq: 3}); err != nil {
		t.Fatal(err)
	}
	rx.wait(t, 1)
	if st := f.Stats(); st.Received != 1 || st.Sent != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSendUnroutable(t *testing.T) {
	conn := listen(t)
	f, err := New(runtime.NewWall(), conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := f.Send(packet.ControllerIP, packet.APIP(5), &packet.HealthProbe{}); err == nil {
		t.Fatal("send to unknown address succeeded")
	}
}

// datagram builds one datagram on the fabric's wire format:
// [from][count][to]×count, then the payload parts.
func datagram(from packet.IPv4Addr, tos []packet.IPv4Addr, parts ...[]byte) []byte {
	b := append(append([]byte{}, from[:]...), byte(len(tos)))
	for _, to := range tos {
		b = append(b, to[:]...)
	}
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

// Malformed datagrams must be counted and dropped, never crash the reader,
// and the fabric must keep delivering afterwards.
func TestMalformedDatagramsSurvived(t *testing.T) {
	conn := listen(t)
	w := runtime.NewWall()
	go w.Run()
	defer w.Stop()
	f, err := New(w, conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	rx := newCollector()
	ap0 := packet.APIP(0)
	f.Attach(ap0, rx)
	f.Start()
	defer f.Close()

	tx := listen(t)
	defer tx.Close()
	dst := conn.LocalAddr().(*net.UDPAddr)
	ctl := packet.ControllerIP
	bad := [][]byte{
		{},        // empty
		{1, 2, 3}, // shorter than sender and count
		datagram(ctl, []packet.IPv4Addr{ap0}, []byte{byte(packet.MsgStop), 0}),      // truncated envelope
		datagram(ctl, []packet.IPv4Addr{ap0}, []byte{0xff, 0x00, 0x04, 1, 2, 3, 4}), // unknown type
	}
	for _, b := range bad {
		if _, err := tx.WriteToUDP(b, dst); err != nil {
			t.Fatal(err)
		}
	}
	// A good message after the garbage proves the reader survived.
	good := datagram(ctl, []packet.IPv4Addr{ap0}, packet.Encode(&packet.HealthProbe{Seq: 9}))
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
	if st := f.Stats(); st.DecodeErrs < uint64(len(bad)) {
		// UDP on loopback does not drop, so all four should be counted by
		// the time the good message made it through.
		t.Fatalf("DecodeErrs = %d, want >= %d", st.DecodeErrs, len(bad))
	}
}

// Every malformed-message class must increment DecodeErrs exactly once and
// deliver nothing: truncated envelope, lying length field, unknown type, and
// trailing bytes after a well-formed message (the codec accepts exactly one
// message, so a datagram carries exactly one).
func TestDecodeErrorAccountingPerClass(t *testing.T) {
	w := runtime.NewWall()
	go w.Run()
	defer w.Stop()
	f, err := New(w, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rx := newCollector()
	f.Attach(packet.APIP(0), rx)
	to := []packet.IPv4Addr{packet.APIP(0)}

	valid := packet.Encode(&packet.HealthProbe{Seq: 4, At: 1})
	cases := []struct {
		name string
		raw  []byte
	}{
		{"truncated envelope", []byte{byte(packet.MsgStop), 0x00}},
		{"length field lies", []byte{byte(packet.MsgStop), 0xff, 0xff, 1, 2, 3}},
		{"unknown type", []byte{0xee, 0x00, 0x02, 7, 7}},
		{"trailing garbage", append(append([]byte{}, valid...), 0xab)},
	}
	for i, tc := range cases {
		f.deliver(packet.ControllerIP, to, tc.raw)
		if st := f.Stats(); st.DecodeErrs != uint64(i+1) {
			t.Fatalf("%s: DecodeErrs = %d, want %d", tc.name, st.DecodeErrs, i+1)
		}
	}
	// The exact same bytes minus the trailing garbage must deliver.
	f.deliver(packet.ControllerIP, to, valid)
	rx.wait(t, 1)
	st := f.Stats()
	if st.Received != 1 || st.DecodeErrs != uint64(len(cases)) {
		t.Fatalf("stats = %+v, want Received 1, DecodeErrs %d", st, len(cases))
	}
	rx.mu.Lock()
	defer rx.mu.Unlock()
	if len(rx.types) != 1 || rx.types[0] != packet.MsgHealthProbe {
		t.Fatalf("deliveries = %v, want exactly one health-probe", rx.types)
	}
}

// A datagram addressed to a virtual node this fabric does not host is
// counted as unroutable and posts nothing.
func TestUnroutableInbound(t *testing.T) {
	w := runtime.NewWall()
	f, err := New(w, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.receive(datagram(packet.ControllerIP, []packet.IPv4Addr{packet.APIP(99)},
		packet.Encode(&packet.HealthProbe{Seq: 1})))
	if st := f.Stats(); st.Unroutable != 1 || st.Received != 0 || st.DecodeErrs != 0 {
		t.Fatalf("stats = %+v, want exactly one unroutable copy", st)
	}
	if _, ok := w.Eng.Next(); ok {
		t.Fatal("unroutable datagram scheduled a delivery")
	}
}

// Receiving a one-target datagram allocates nothing beyond the message the
// codec decodes: the delivery event is pooled and the target list is reader
// scratch. Stop makes each Run one pass, which fires the previous
// datagram's delivery (returning its event to the pool) and queues this one.
func TestReceiveAllocsOnlyTheDecodedMessage(t *testing.T) {
	w := runtime.NewWall()
	w.Stop()
	f, err := New(w, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	f.Attach(packet.APIP(0), backhaul.NodeFunc(func(packet.IPv4Addr, packet.Message) { delivered++ }))
	payload := packet.Encode(&packet.Stop{Client: packet.ClientMAC(1), NextAP: packet.APIP(1), SwitchID: 7})
	dg := datagram(packet.ControllerIP, []packet.IPv4Addr{packet.APIP(0)}, payload)
	recv := func() {
		f.receive(dg)
		w.Run()
	}
	recv()
	recv()
	// 1,000 runs: under -race, sync.Pool drops a quarter of its Puts, and
	// the misses must not add up to a whole allocation per run.
	got := testing.AllocsPerRun(1000, recv)
	want := testing.AllocsPerRun(1000, func() { _, _ = packet.Decode(payload) })
	if got > want {
		t.Fatalf("receive allocates %.1f/op, packet.Decode alone %.1f/op", got, want)
	}
	if delivered == 0 {
		t.Fatal("no delivery fired")
	}
}

// Sends from several goroutines — local, batched and remote — race each
// other and the reader goroutine onto one fabric's pooled deliveries; every
// copy for the local node arrives.
func TestConcurrentSendAndReceive(t *testing.T) {
	connA, connB := listen(t), listen(t)
	w := runtime.NewWall()
	go w.Run()
	defer w.Stop()
	ctl, ap0, ap1 := packet.ControllerIP, packet.APIP(0), packet.APIP(1)
	fa, err := New(w, connA, map[packet.IPv4Addr]string{ap1: connB.LocalAddr().String()})
	if err != nil {
		t.Fatal(err)
	}
	fb, err := New(runtime.NewWall(), connB, map[packet.IPv4Addr]string{ap0: connA.LocalAddr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer connB.Close()
	rx := newCollector()
	fa.Attach(ap0, rx)
	fa.Start()
	defer fa.Close()

	const senders, per = 4, 25
	msg := &packet.HealthProbe{Seq: 1}
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < per; k++ {
				if err := fa.Send(ctl, ap0, msg); err != nil {
					t.Error(err)
				}
				fa.SendMany(ctl, []packet.IPv4Addr{ap0, ap1}, msg)
				if err := fb.Send(ap1, ap0, msg); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	rx.wait(t, 3*senders*per)
	wg.Wait()
}

// The fabric must satisfy backhaul.Fabric alongside the simulator Switch.
var _ backhaul.Fabric = (*Fabric)(nil)
var _ backhaul.Fabric = (*backhaul.Switch)(nil)
