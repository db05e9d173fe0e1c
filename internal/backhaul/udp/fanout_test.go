package udp

import (
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

// A failed socket write must leave the switch's sent and bytes and the
// port's datagram count untouched — stats count what was sent, not what was
// attempted — and Send reports it.
func TestSendStatsCountAfterSuccessfulWrite(t *testing.T) {
	conn, peer := listen(t), listen(t)
	_, sw, p := newNode(t, conn, map[packet.IPv4Addr]string{packet.APIP(0): peer.LocalAddr().String()})
	peer.Close()
	conn.Close() // writes on a closed socket fail deterministically
	if err := sw.Send(packet.ControllerIP, packet.APIP(0), &packet.HealthProbe{Seq: 1}); err == nil {
		t.Fatal("send on a closed socket succeeded")
	}
	if sent, _, bytes := sw.Stats(); sent != 0 || bytes != 0 || p.Stats().Sent != 0 {
		t.Fatalf("failed write was counted: switch %d sent / %d bytes, port %+v", sent, bytes, p.Stats())
	}
}

// Steady-state Send to a remote peer allocates nothing: the one-target
// lists and the encode and datagram buffers are reused scratch, and a
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

// Fan-out across sockets: targets grouped by endpoint, one datagram per
// endpoint listing its targets, every copy delivered in listed order.
func TestSendManyBatchRoundTrip(t *testing.T) {
	connA, connB, connC := listen(t), listen(t), listen(t)
	// B hosts APs 0–2 (one three-target datagram), C hosts AP 3 (one-target datagram).
	table := map[packet.IPv4Addr]string{
		packet.APIP(0): connB.LocalAddr().String(),
		packet.APIP(1): connB.LocalAddr().String(),
		packet.APIP(2): connB.LocalAddr().String(),
		packet.APIP(3): connC.LocalAddr().String(),
	}
	_, swA, pa := newNode(t, connA, table)
	wB, swB, pb := newNode(t, connB, nil)
	wC, swC, pc := newNode(t, connC, nil)
	recB, recC := newOrderRec(), newOrderRec()
	for i := 0; i < 3; i++ {
		swB.Attach(packet.APIP(i), recB.node(i))
	}
	swC.Attach(packet.APIP(3), recC.node(3))
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

	tos := []packet.IPv4Addr{packet.APIP(0), packet.APIP(1), packet.APIP(2), packet.APIP(3)}
	msg := downMsg(5)
	size := uint64(3 + msg.WireSize())
	swA.SendMany(packet.ControllerIP, tos, msg)
	recB.wait(t, 3)
	recC.wait(t, 1)

	if st := pa.Stats(); st.Sent != 2 {
		t.Fatalf("Sent = %d datagrams, want 2 (one per endpoint)", st.Sent)
	}
	if sent, _, bytes := swA.Stats(); sent != 4 || bytes != 4*size {
		t.Fatalf("switch counted %d copies / %d bytes, want 4 / %d", sent, bytes, 4*size)
	}
	recB.mu.Lock()
	defer recB.mu.Unlock()
	if len(recB.ids) != 3 || recB.ids[0] != 0 || recB.ids[1] != 1 || recB.ids[2] != 2 {
		t.Fatalf("batch delivery order = %v, want [0 1 2]", recB.ids)
	}
	for _, idx := range recB.idxs {
		if idx != 5 {
			t.Fatalf("delivered indexes = %v, want all 5", recB.idxs)
		}
	}
	if st := pb.Stats(); st.DecodeErrs != 0 || st.Unroutable != 0 {
		t.Fatalf("B port stats = %+v", st)
	}
}

// SendMany to nodes attached to the sending switch: every local copy
// delivered in listed order, no-route targets skipped silently, no datagram.
func TestSendManyLocalTargets(t *testing.T) {
	w, sw, p := newNode(t, listen(t), nil)
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
	if sent, _, _ := sw.Stats(); sent != 2 || p.Stats().Sent != 0 {
		t.Fatalf("switch sent %d, port %+v; want 2 local copies, no datagram", sent, p.Stats())
	}
}

// Malformed multi-target datagrams are counted and dropped without
// panicking, and copies for unhosted addresses count as unroutable.
func TestMalformedBatchDatagrams(t *testing.T) {
	w, sw, p := newNode(t, nil, nil)
	rec := newOrderRec()
	sw.Attach(packet.APIP(0), rec.node(0))

	ctl, ap0, ap9 := packet.ControllerIP, packet.APIP(0), packet.APIP(9)
	valid := packet.Encode(downMsg(1))
	bad := [][]byte{
		ctl[:],                    // no count byte
		datagram(ctl, nil, valid), // zero copies
		datagram(ctl, []packet.IPv4Addr{ap0, ap9, ap0})[:11],                    // count says 3, list truncated
		datagram(ctl, []packet.IPv4Addr{ap0, ap9}, []byte{0xee, 0x00, 0x01, 9}), // unknown payload type
	}
	for i, b := range bad {
		p.receive(b)
		drain(w)
		if st := p.Stats(); st.DecodeErrs != uint64(i+1) {
			t.Fatalf("case %d: DecodeErrs = %d, want %d", i, st.DecodeErrs, i+1)
		}
	}

	// One hosted target, one unhosted: the hosted copy delivers, the other
	// counts as unroutable.
	p.receive(datagram(ctl, []packet.IPv4Addr{ap0, ap9}, valid))
	drain(w)
	rec.wait(t, 1)
	if st := p.Stats(); st.Unroutable != 1 || st.DecodeErrs != uint64(len(bad)) {
		t.Fatalf("stats = %+v, want 1 unroutable / %d decode errors", st, len(bad))
	}
}

// Steady-state SendMany of 8 targets on two endpoints — two datagrams —
// allocates nothing: the remote lists, groups and buffers are reused
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
	_, sw, p := newNode(t, conn, table)
	msg := downMsg(3)
	send := func() { sw.SendMany(packet.ControllerIP, tos, msg) }
	send()
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("SendMany steady state allocates %.1f/op, want 0", allocs)
	}
	if sent, _, _ := sw.Stats(); sent != 4*p.Stats().Sent {
		t.Fatalf("switch sent %d copies in %d datagrams, want two 4-copy datagrams per send", sent, p.Stats().Sent)
	}
}

// An endpoint hosting more than maxBatch targets gets several chunked
// datagrams, all copies delivered.
func TestSendManyChunksLargeGroups(t *testing.T) {
	connA, connB := listen(t), listen(t)
	const nTargets = maxBatch + 5
	table := map[packet.IPv4Addr]string{}
	tos := make([]packet.IPv4Addr, nTargets)
	for i := 0; i < nTargets; i++ {
		// packet.APIP only spans one octet; spread across two.
		addr := packet.IPv4Addr{10, 1, byte(i >> 8), byte(i)}
		table[addr] = connB.LocalAddr().String()
		tos[i] = addr
	}
	_, swA, pa := newNode(t, connA, table)
	wB, swB, pb := newNode(t, connB, nil)
	var mu sync.Mutex
	got := 0
	ch := make(chan struct{}, nTargets)
	for _, addr := range tos {
		swB.Attach(addr, backhaul.NodeFunc(func(packet.IPv4Addr, packet.Message) {
			mu.Lock()
			got++
			mu.Unlock()
			ch <- struct{}{}
		}))
	}
	pb.Start()
	defer pa.Close()
	defer pb.Close()
	go wB.Run()
	defer wB.Stop()

	swA.SendMany(packet.ControllerIP, tos, downMsg(2))
	for i := 0; i < nTargets; i++ {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out at copy %d/%d", i+1, nTargets)
		}
	}
	if st := pa.Stats(); st.Sent != 2 {
		t.Fatalf("stats = %+v, want 2 chunked datagrams carrying %d copies", st, nTargets)
	}
	if sent, _, _ := swA.Stats(); sent != nTargets {
		t.Fatalf("switch counted %d copies, want %d", sent, nTargets)
	}
}
