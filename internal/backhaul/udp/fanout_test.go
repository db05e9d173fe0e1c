package udp

import (
	"slices"
	"sync"
	"testing"
	"time"

	"wgtt/internal/backhaul"
	"wgtt/internal/packet"
	"wgtt/internal/runtime"
)

func downMsg(index uint16) *packet.DownData {
	return &packet.DownData{Pkt: &packet.Packet{
		ClientMAC: packet.ClientMAC(1), Index: index, Bytes: 1200,
	}}
}

// orderRec tags deliveries to several virtual nodes with the node's id, in
// one shared arrival sequence — cross-node delivery order is observable.
type orderRec struct {
	mu   sync.Mutex
	ids  []int
	idxs []uint16
	ch   chan struct{}
}

func newOrderRec() *orderRec { return &orderRec{ch: make(chan struct{}, 64)} }

func (o *orderRec) node(id int) backhaul.Node {
	return backhaul.NodeFunc(func(_ packet.IPv4Addr, msg packet.Message) {
		o.mu.Lock()
		o.ids = append(o.ids, id)
		o.idxs = append(o.idxs, msg.(*packet.DownData).Pkt.Index)
		o.mu.Unlock()
		o.ch <- struct{}{}
	})
}

func (o *orderRec) wait(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-o.ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for delivery %d/%d", i+1, n)
		}
	}
}

// A failed socket write must leave the switch's sent and bytes untouched —
// stats count what was sent, not what was attempted — and Send reports it.
func TestSendStatsCountAfterSuccessfulWrite(t *testing.T) {
	conn, peer := listen(t), listen(t)
	defer peer.Close()
	_, sw, _ := newNode(t, conn, map[packet.IPv4Addr]string{packet.APIP(0): peer.LocalAddr().String()})
	conn.Close() // writes on a closed socket fail deterministically
	if err := sw.Send(packet.ControllerIP, packet.APIP(0), &packet.HealthProbe{Seq: 1}); err == nil {
		t.Fatal("send on a closed socket succeeded")
	}
	if sent, _, bytes := sw.Stats(); sent != 0 || bytes != 0 {
		t.Fatalf("failed write was counted: switch %d sent / %d bytes", sent, bytes)
	}
	silent(t, peer)
}

// Steady-state Send to a remote peer allocates nothing: the one-target
// list and the encode and datagram buffers are reused scratch, and a
// remote-only send decodes nothing (a HealthProbe's decode allocates).
func TestSendZeroAlloc(t *testing.T) {
	conn, sink := listen(t), listen(t)
	defer sink.Close()
	defer conn.Close()
	_, sw, _ := newNode(t, conn, map[packet.IPv4Addr]string{packet.APIP(0): sink.LocalAddr().String()})
	// No drain: once the sink's receive buffer fills, the kernel drops the
	// overflow silently and the measured writes still succeed.
	msg := &packet.HealthProbe{Seq: 2, At: 3}
	send := func() { _ = sw.Send(packet.ControllerIP, packet.APIP(0), msg) }
	send()
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("Send steady state allocates %.1f/op, want 0", allocs)
	}
}

// Fan-out across sockets: three targets over two endpoints are three
// one-target datagrams — each receiving port decodes the bytes after the
// header as exactly one message, so a clean delivery per copy is a
// one-copy datagram — and each endpoint's copies arrive in target order.
func TestSendManyBatchRoundTrip(t *testing.T) {
	connA, connB, connC := listen(t), listen(t), listen(t)
	// B hosts APs 0 and 2, C hosts AP 1.
	table := map[packet.IPv4Addr]string{
		packet.APIP(0): connB.LocalAddr().String(),
		packet.APIP(1): connC.LocalAddr().String(),
		packet.APIP(2): connB.LocalAddr().String(),
	}
	_, swA, pa := newNode(t, connA, table)
	wB, swB, pb := newNode(t, connB, nil)
	wC, swC, pc := newNode(t, connC, nil)
	recB, recC := newOrderRec(), newOrderRec()
	swB.Attach(packet.APIP(0), recB.node(0))
	swB.Attach(packet.APIP(2), recB.node(2))
	swC.Attach(packet.APIP(1), recC.node(1))
	for _, n := range []struct {
		w *runtime.Wall
		p *Port
	}{{wB, pb}, {wC, pc}} {
		n.p.Start()
		defer n.p.Close()
		go n.w.Run()
		defer n.w.Stop()
	}
	defer pa.Close()

	tos := []packet.IPv4Addr{packet.APIP(0), packet.APIP(1), packet.APIP(2)}
	msg := downMsg(5)
	size := uint64(3 + msg.WireSize())
	for i := uint16(0); i < 2; i++ {
		msg.Pkt.Index = 5 + i
		swA.SendMany(packet.ControllerIP, tos, msg)
	}
	recB.wait(t, 4)
	recC.wait(t, 2)

	if sent, _, bytes := swA.Stats(); sent != 6 || bytes != 6*size {
		t.Fatalf("switch counted %d copies / %d bytes, want 6 / %d", sent, bytes, 6*size)
	}
	recB.mu.Lock()
	defer recB.mu.Unlock()
	if !slices.Equal(recB.ids, []int{0, 2, 0, 2}) || !slices.Equal(recB.idxs, []uint16{5, 5, 6, 6}) {
		t.Fatalf("B delivered ids %v indexes %v, want [0 2 0 2] / [5 5 6 6]", recB.ids, recB.idxs)
	}
	recC.mu.Lock()
	defer recC.mu.Unlock()
	if !slices.Equal(recC.idxs, []uint16{5, 6}) {
		t.Fatalf("C delivered indexes %v, want [5 6]", recC.idxs)
	}
	for _, p := range []*Port{pb, pc} {
		if st := p.Stats(); st.DecodeErrs != 0 || st.Unroutable != 0 {
			t.Fatalf("receiver port stats = %+v", st)
		}
	}
}

// SendMany to nodes attached to the sending switch: every local copy
// delivered in listed order, no-route targets skipped silently, no datagram.
func TestSendManyLocalTargets(t *testing.T) {
	sink := listen(t)
	defer sink.Close()
	w, sw, p := newNode(t, listen(t), map[packet.IPv4Addr]string{packet.APIP(2): sink.LocalAddr().String()})
	defer p.Close()
	rec := newOrderRec()
	sw.Attach(packet.APIP(0), rec.node(0))
	sw.Attach(packet.APIP(1), rec.node(1))

	tos := []packet.IPv4Addr{packet.APIP(1), packet.APIP(9), packet.APIP(0)}
	sw.SendMany(packet.ControllerIP, tos, downMsg(8))
	drain(w)
	rec.wait(t, 2)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.ids) != 2 || rec.ids[0] != 1 || rec.ids[1] != 0 {
		t.Fatalf("local delivery order = %v, want [1 0]", rec.ids)
	}
	if sent, _, _ := sw.Stats(); sent != 2 {
		t.Fatalf("switch sent %d, want 2 local copies", sent)
	}
	silent(t, sink)
}

// Malformed datagram headers are counted and dropped without panicking,
// and a copy for an unhosted address counts as unroutable.
func TestMalformedBatchDatagrams(t *testing.T) {
	w, sw, p := newNode(t, nil, nil)
	rec := newOrderRec()
	sw.Attach(packet.APIP(0), rec.node(0))

	ctl, ap0, ap9 := packet.ControllerIP, packet.APIP(0), packet.APIP(9)
	valid := packet.Encode(downMsg(1))
	bad := [][]byte{
		ctl[:],                 // no target
		datagram(ctl, ap0)[:6], // truncated target
		datagram(ctl, ap0, []byte{0xee, 0x00, 0x01, 9}), // unknown payload type
	}
	for i, b := range bad {
		p.receive(b)
		drain(w)
		if st := p.Stats(); st.DecodeErrs != uint64(i+1) {
			t.Fatalf("case %d: DecodeErrs = %d, want %d", i, st.DecodeErrs, i+1)
		}
	}

	// A hosted target's copy delivers, an unhosted one's counts as
	// unroutable.
	p.receive(datagram(ctl, ap0, valid))
	p.receive(datagram(ctl, ap9, valid))
	drain(w)
	rec.wait(t, 1)
	if st := p.Stats(); st.Unroutable != 1 || st.DecodeErrs != uint64(len(bad)) {
		t.Fatalf("stats = %+v, want 1 unroutable / %d decode errors", st, len(bad))
	}
}

// Steady-state SendMany of 8 targets on two endpoints — eight datagrams —
// allocates nothing: the one-target header and the buffers are reused
// scratch.
func TestSendManyZeroAlloc(t *testing.T) {
	conn, sinkA, sinkB := listen(t), listen(t), listen(t)
	defer conn.Close()
	defer sinkA.Close()
	defer sinkB.Close()
	table := map[packet.IPv4Addr]string{}
	tos := make([]packet.IPv4Addr, 8)
	for i := range tos {
		tos[i] = packet.APIP(i)
		sink := sinkA
		if i%2 == 1 {
			sink = sinkB
		}
		table[tos[i]] = sink.LocalAddr().String()
	}
	_, sw, _ := newNode(t, conn, table)
	msg := downMsg(3)
	send := func() { sw.SendMany(packet.ControllerIP, tos, msg) }
	send()
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("SendMany steady state allocates %.1f/op, want 0", allocs)
	}
	if sent, _, _ := sw.Stats(); sent != 8*102 {
		t.Fatalf("switch wrote %d copies in 102 sends, want 8 per send", sent)
	}
}
