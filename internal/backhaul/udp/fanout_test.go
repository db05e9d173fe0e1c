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

// A failed socket write must leave Sent and Bytes untouched — stats count
// what was sent, not what was attempted — and Send reports it.
func TestSendStatsCountAfterSuccessfulWrite(t *testing.T) {
	conn := listen(t)
	peer := listen(t)
	f, err := New(runtime.NewWall(), conn,
		map[packet.IPv4Addr]string{packet.APIP(0): peer.LocalAddr().String()})
	if err != nil {
		t.Fatal(err)
	}
	peer.Close()
	conn.Close() // writes on a closed socket fail deterministically
	if err := f.Send(packet.ControllerIP, packet.APIP(0), &packet.HealthProbe{Seq: 1}); err == nil {
		t.Fatal("send on a closed socket succeeded")
	}
	if st := f.Stats(); st.Sent != 0 || st.Bytes != 0 {
		t.Fatalf("failed write was counted: %+v", st)
	}
}

// Steady-state Send to a remote peer allocates nothing: the one-target
// list stays on the stack, the encode and datagram buffers are reused
// scratch, and a lone datagram goes straight to WriteToUDP.
func TestSendZeroAlloc(t *testing.T) {
	conn := listen(t)
	sink := listen(t)
	defer sink.Close()
	defer conn.Close()
	f, err := New(runtime.NewWall(), conn,
		map[packet.IPv4Addr]string{packet.APIP(0): sink.LocalAddr().String()})
	if err != nil {
		t.Fatal(err)
	}
	// No drain: once the sink's receive buffer fills, the kernel drops the
	// overflow silently and the measured writes still succeed.
	msg := &packet.HealthProbe{Seq: 2, At: 3}
	send := func() { _ = f.Send(packet.ControllerIP, packet.APIP(0), msg) }
	send()
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("Send steady state allocates %.1f/op, want 0", allocs)
	}
}

// Fan-out across sockets: targets grouped by endpoint, one datagram per
// endpoint listing its targets, every copy delivered in listed order.
func TestSendManyBatchRoundTrip(t *testing.T) {
	connA, connB, connC := listen(t), listen(t), listen(t)
	wA, wB, wC := runtime.NewWall(), runtime.NewWall(), runtime.NewWall()
	for _, w := range []*runtime.Wall{wA, wB, wC} {
		go w.Run()
		defer w.Stop()
	}

	// B hosts APs 0–2 (one batch datagram), C hosts AP 3 (one-target datagram).
	table := map[packet.IPv4Addr]string{
		packet.APIP(0): connB.LocalAddr().String(),
		packet.APIP(1): connB.LocalAddr().String(),
		packet.APIP(2): connB.LocalAddr().String(),
		packet.APIP(3): connC.LocalAddr().String(),
	}
	fa, err := New(wA, connA, table)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := New(wB, connB, nil)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := New(wC, connC, nil)
	if err != nil {
		t.Fatal(err)
	}
	recB, recC := newOrderRec(), newOrderRec()
	for i := 0; i < 3; i++ {
		fb.Attach(packet.APIP(i), recB.node(i))
	}
	fc.Attach(packet.APIP(3), recC.node(3))
	fb.Start()
	fc.Start()
	defer fa.Close()
	defer fb.Close()
	defer fc.Close()

	tos := []packet.IPv4Addr{packet.APIP(0), packet.APIP(1), packet.APIP(2), packet.APIP(3)}
	msg := downMsg(5)
	size := uint64(3 + msg.WireSize())
	fa.SendMany(packet.ControllerIP, tos, msg)
	recB.wait(t, 3)
	recC.wait(t, 1)

	st := fa.Stats()
	if st.Sent != 2 {
		t.Fatalf("Sent = %d datagrams, want 2 (one per endpoint)", st.Sent)
	}
	if st.BatchedWrites != 1 || st.BatchedCopies != 3 {
		t.Fatalf("batch stats = %d writes / %d copies, want 1/3", st.BatchedWrites, st.BatchedCopies)
	}
	if st.Bytes != 4*size {
		t.Fatalf("Bytes = %d, want %d (4 copies x %d)", st.Bytes, 4*size, size)
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
	if bst := fb.Stats(); bst.Received != 3 {
		t.Fatalf("B received %d copies, want 3", bst.Received)
	}
}

// SendMany to nodes hosted on the sending fabric: one decode, every local
// copy delivered in listed order, no-route targets skipped silently.
func TestSendManyLocalTargets(t *testing.T) {
	conn := listen(t)
	w := runtime.NewWall()
	go w.Run()
	defer w.Stop()
	f, err := New(w, conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := newOrderRec()
	f.Attach(packet.APIP(0), rec.node(0))
	f.Attach(packet.APIP(1), rec.node(1))
	f.Start()
	defer f.Close()

	tos := []packet.IPv4Addr{packet.APIP(1), packet.APIP(9), packet.APIP(0)}
	f.SendMany(packet.ControllerIP, tos, downMsg(8))
	rec.wait(t, 2)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.ids) != 2 || rec.ids[0] != 1 || rec.ids[1] != 0 {
		t.Fatalf("local delivery order = %v, want [1 0]", rec.ids)
	}
	st := f.Stats()
	if st.Sent != 2 || st.Received != 2 {
		t.Fatalf("stats = %+v, want 2 sent / 2 received", st)
	}
}

// Malformed multi-target datagrams are counted and dropped without
// panicking, and copies for unhosted addresses count as unroutable.
func TestMalformedBatchDatagrams(t *testing.T) {
	w := runtime.NewWall()
	go w.Run()
	defer w.Stop()
	f, err := New(w, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := newOrderRec()
	f.Attach(packet.APIP(0), rec.node(0))

	ctl, ap0, ap9 := packet.ControllerIP, packet.APIP(0), packet.APIP(9)
	valid := packet.Encode(downMsg(1))
	bad := [][]byte{
		ctl[:],                    // no count byte
		datagram(ctl, nil, valid), // zero copies
		datagram(ctl, []packet.IPv4Addr{ap0, ap9, ap0})[:11],                    // count says 3, list truncated
		datagram(ctl, []packet.IPv4Addr{ap0, ap9}, []byte{0xee, 0x00, 0x01, 9}), // unknown payload type
	}
	for i, b := range bad {
		f.receive(b)
		if st := f.Stats(); st.DecodeErrs != uint64(i+1) {
			t.Fatalf("case %d: DecodeErrs = %d, want %d", i, st.DecodeErrs, i+1)
		}
	}

	// One hosted target, one unhosted: the hosted copy delivers, the other
	// counts as unroutable.
	f.receive(datagram(ctl, []packet.IPv4Addr{ap0, ap9}, valid))
	rec.wait(t, 1)
	st := f.Stats()
	if st.Received != 1 || st.Unroutable != 1 || st.DecodeErrs != uint64(len(bad)) {
		t.Fatalf("stats = %+v, want 1 received / 1 unroutable / %d decode errors", st, len(bad))
	}
}

// Steady-state SendMany of 8 targets on two endpoints — one sendmmsg of two
// datagrams — allocates nothing: the raw connection and its callback are
// bound once, the vectors and buffers are reused scratch.
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
	f, err := New(runtime.NewWall(), conn, table)
	if err != nil {
		t.Fatal(err)
	}
	msg := downMsg(3)
	send := func() { f.SendMany(packet.ControllerIP, tos, msg) }
	send()
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("SendMany steady state allocates %.1f/op, want 0", allocs)
	}
	if st := f.Stats(); st.BatchedWrites == 0 || st.BatchedCopies != 4*st.BatchedWrites {
		t.Fatalf("stats = %+v, want two 4-copy datagrams per send", st)
	}
}

// An endpoint hosting more than maxBatch targets gets several chunked batch
// datagrams, all copies delivered.
func TestSendManyChunksLargeGroups(t *testing.T) {
	connA, connB := listen(t), listen(t)
	wA, wB := runtime.NewWall(), runtime.NewWall()
	go wA.Run()
	go wB.Run()
	defer wA.Stop()
	defer wB.Stop()

	const nTargets = maxBatch + 5
	table := map[packet.IPv4Addr]string{}
	tos := make([]packet.IPv4Addr, nTargets)
	for i := 0; i < nTargets; i++ {
		// packet.APIP only spans one octet; spread across two.
		addr := packet.IPv4Addr{10, 1, byte(i >> 8), byte(i)}
		table[addr] = connB.LocalAddr().String()
		tos[i] = addr
	}
	fa, err := New(wA, connA, table)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := New(wB, connB, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got := 0
	ch := make(chan struct{}, nTargets)
	for _, addr := range tos {
		fb.Attach(addr, backhaul.NodeFunc(func(packet.IPv4Addr, packet.Message) {
			mu.Lock()
			got++
			mu.Unlock()
			ch <- struct{}{}
		}))
	}
	fb.Start()
	defer fa.Close()
	defer fb.Close()

	fa.SendMany(packet.ControllerIP, tos, downMsg(2))
	for i := 0; i < nTargets; i++ {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out at copy %d/%d", i+1, nTargets)
		}
	}
	st := fa.Stats()
	if st.Sent != 2 || st.BatchedWrites != 2 || st.BatchedCopies != nTargets {
		t.Fatalf("stats = %+v, want 2 chunked batch datagrams carrying %d copies", st, nTargets)
	}
}
