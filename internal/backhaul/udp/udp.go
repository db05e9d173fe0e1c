// Package udp is the live backhaul.Fabric (DESIGN.md §12): it carries every
// packet.Message over real UDP sockets, so controller and AP protocol cores
// that exchange typed structs in simulation exchange their actual wire
// encodings between processes in live mode. The paper's backhaul is a
// switched Ethernet LAN (§4); UDP over that LAN preserves its two properties
// the protocols depend on — sub-millisecond delivery and occasional silent
// loss (§3.1.2's 30 ms retransmission timeout exists for exactly that).
//
// Addressing stays virtual: nodes keep their simulator identities
// (packet.ControllerIP, packet.APIP(i)) and a static table maps each virtual
// address to the UDP endpoint hosting it. Every datagram is
//
//	[4B from][1B count][4B to]×count[packet.Encode(msg)]
//
// with count ≥ 1, so a single socket can host several virtual nodes and the
// receiver can attribute the message without trusting the kernel-reported
// source. Send is the one-target case of SendMany, the §3.1.1 fan-out's
// line-rate path (DESIGN.md §14): the message is encoded once, targets are
// grouped by hosting endpoint, and each group becomes one datagram listing
// its targets. The receiver decodes the payload once and delivers it to each
// listed local target in order. Several datagrams go out in one sendmmsg
// system call on Linux, so a 128-AP fan-out costs a handful of syscalls
// instead of 128. The trade: one lost datagram loses every copy it carried —
// acceptable because the copies are redundant by design (any AP that heard
// the client can deliver).
//
// Inbound datagrams are decoded on the reader goroutine and handed to the
// node's runtime.Wall with Post, which serializes them onto the one engine
// the protocol cores run on — the same one-event-at-a-time world as in
// simulation.
package udp

import (
	"bytes"
	"fmt"
	"net"
	"sort"
	"sync"

	"wgtt/internal/backhaul"
	"wgtt/internal/packet"
	"wgtt/internal/runtime"
)

// maxBatch bounds how many copies one datagram carries (its count field is
// a single byte). Endpoints hosting more targets get several datagrams.
const maxBatch = 255

// maxDatagram bounds one datagram on the wire: the sender, the largest
// target list (count byte plus maxBatch targets), the codec's 3-byte
// envelope, and a 16-bit payload length.
const maxDatagram = 4 + 1 + 4*maxBatch + 3 + 65535

// Stats counts fabric activity. Bytes counts encoded message bytes per
// copy (envelope + payload, excluding addressing and batch overhead),
// matching the in-memory Switch's accounting so live and simulated byte
// counts compare — a batch datagram carrying n copies adds n× the message
// size. Sent counts datagrams written (a batch datagram counts once; its
// copy count is preserved in BatchedCopies).
type Stats struct {
	Sent          uint64 // datagrams written (loopback deliveries included)
	Received      uint64 // message copies delivered to a local node
	Bytes         uint64 // encoded message bytes sent, per copy
	DecodeErrs    uint64 // inbound datagrams dropped as malformed
	Unroutable    uint64 // inbound copies for addresses not hosted here
	BatchedWrites uint64 // batch datagrams written (more than one copy)
	BatchedCopies uint64 // copies that rode a batch datagram
}

// Fabric implements backhaul.Fabric over one UDP socket.
type Fabric struct {
	w    *runtime.Wall
	conn *net.UDPConn

	mu    sync.Mutex
	nodes map[packet.IPv4Addr]backhaul.Node

	// Route table, immutable after New: eps lists the distinct UDP
	// endpoints the peer table names, epIndex maps each remote virtual
	// address to its endpoint — send's grouping key.
	eps     []*net.UDPAddr
	epIndex map[packet.IPv4Addr]int

	// smu serializes the send path and guards its scratch state below;
	// holding it across the socket write also keeps concurrent senders'
	// datagrams whole.
	smu     sync.Mutex
	enc     []byte              // reusable message encode buffer
	local   []packet.IPv4Addr   // local targets of the current send
	groups  [][]packet.IPv4Addr // remote targets, per endpoint
	touched []int               // endpoints used by the current send
	bufs    [][]byte            // reusable datagram buffers
	dsts    []*net.UDPAddr      // destinations of the current datagrams
	bw      batchWriter         // platform batch-write state (sendmmsg)

	// rscratch is the reader goroutine's target-list scratch.
	rscratch []packet.IPv4Addr

	// dpool recycles delivery events: the reader and send goroutines take
	// them, the run loop returns them.
	dpool sync.Pool

	stats Stats

	started bool
	done    chan struct{}
}

// New builds a fabric on a pre-bound socket. table maps every REMOTE virtual
// address to its "host:port"; local nodes are added with Attach. Call Start
// once the local nodes are attached. Inbound messages are posted to w.
func New(w *runtime.Wall, conn *net.UDPConn, table map[packet.IPv4Addr]string) (*Fabric, error) {
	f := &Fabric{
		w:       w,
		conn:    conn,
		nodes:   make(map[packet.IPv4Addr]backhaul.Node),
		epIndex: make(map[packet.IPv4Addr]int, len(table)),
		done:    make(chan struct{}),
	}
	f.dpool.New = func() any {
		d := &delivery{f: f}
		d.run = d.fire
		return d
	}
	// Walk the peers in ascending address order so endpoint IDs are
	// deterministic for a given peer table, whatever the map order was.
	order := make([]packet.IPv4Addr, 0, len(table))
	for addr := range table {
		order = append(order, addr)
	}
	sort.Slice(order, func(i, j int) bool { return bytes.Compare(order[i][:], order[j][:]) < 0 })
	byEndpoint := make(map[string]int, len(table))
	for _, addr := range order {
		ua, err := net.ResolveUDPAddr("udp", table[addr])
		if err != nil {
			return nil, fmt.Errorf("udp: resolving %v -> %q: %w", addr, table[addr], err)
		}
		key := ua.String()
		id, ok := byEndpoint[key]
		if !ok {
			id = len(f.eps)
			f.eps = append(f.eps, ua)
			byEndpoint[key] = id
		}
		f.epIndex[addr] = id
	}
	f.groups = make([][]packet.IPv4Addr, len(f.eps))
	return f, nil
}

// Attach implements backhaul.Fabric: registers a node hosted by this
// process. Attach before Start; attaching twice replaces the node.
func (f *Fabric) Attach(addr packet.IPv4Addr, n backhaul.Node) {
	if n == nil {
		panic("udp: nil node")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nodes[addr] = n
}

// Start launches the reader goroutine. The fabric stops when the socket is
// closed (Close or an external close of the conn).
func (f *Fabric) Start() {
	f.mu.Lock()
	if f.started {
		f.mu.Unlock()
		return
	}
	f.started = true
	f.mu.Unlock()
	go f.readLoop()
}

// Close shuts the socket down, ending the reader goroutine.
func (f *Fabric) Close() error {
	err := f.conn.Close()
	f.mu.Lock()
	started := f.started
	f.mu.Unlock()
	if started {
		<-f.done
	}
	return err
}

// Send implements backhaul.Fabric: SendMany of one target, except that a
// target with no route or a failed write is reported as an error.
func (f *Fabric) Send(from, to packet.IPv4Addr, msg packet.Message) error {
	return f.send(from, []packet.IPv4Addr{to}, msg)
}

// SendMany implements backhaul.Fabric (DESIGN.md §14). Targets with no
// route are skipped, the same outcome as the per-target Send loop whose
// errors the fan-out path ignores.
func (f *Fabric) SendMany(from packet.IPv4Addr, tos []packet.IPv4Addr, msg packet.Message) {
	_ = f.send(from, tos, msg)
}

// send is the one send path. It encodes msg once and delivers the targets
// hosted here through the codec, in listed order — loopback skips the
// socket, not the wire encoding. Remote targets are grouped by endpoint and
// each group is written as one datagram (several past maxBatch targets),
// all of them in one writeBatch. Sent/Bytes count only after a successful
// write, matching the in-memory Switch's dropped-sends-uncounted rule. The
// error names the first target with no route, else the first failed write.
// msg is never retained.
func (f *Fabric) send(from packet.IPv4Addr, tos []packet.IPv4Addr, msg packet.Message) error {
	f.smu.Lock()
	defer f.smu.Unlock()
	f.enc = packet.EncodeInto(f.enc[:0], msg)
	size := uint64(len(f.enc))

	var err error
	f.local = f.local[:0]
	f.mu.Lock()
	for _, to := range tos {
		if id, ok := f.epIndex[to]; ok {
			if len(f.groups[id]) == 0 {
				f.touched = append(f.touched, id)
			}
			f.groups[id] = append(f.groups[id], to)
		} else if f.nodes[to] != nil {
			f.local = append(f.local, to)
		} else if err == nil {
			err = fmt.Errorf("udp: no route to %v", to)
		}
	}
	f.mu.Unlock()
	if len(f.local) > 0 {
		f.deliver(from, f.local, f.enc)
	}

	f.dsts = f.dsts[:0]
	for _, id := range f.touched {
		for g := f.groups[id]; len(g) > 0; {
			chunk := g[:min(len(g), maxBatch)]
			g = g[len(chunk):]
			nd := len(f.dsts)
			if nd == len(f.bufs) {
				f.bufs = append(f.bufs, nil)
			}
			buf := append(f.bufs[nd][:0], from[:]...)
			buf = append(buf, byte(len(chunk)))
			for _, to := range chunk {
				buf = append(buf, to[:]...)
			}
			f.bufs[nd] = append(buf, f.enc...)
			f.dsts = append(f.dsts, f.eps[id])
		}
		f.groups[id] = f.groups[id][:0]
	}
	f.touched = f.touched[:0]
	dgrams := f.bufs[:len(f.dsts)]
	written, werr := f.writeBatch(f.dsts, dgrams)

	f.mu.Lock()
	f.stats.Sent += uint64(len(f.local))
	f.stats.Bytes += uint64(len(f.local)) * size
	for _, dg := range dgrams[:written] {
		cnt := int(dg[4])
		f.stats.Sent++
		f.stats.Bytes += uint64(cnt) * size
		if cnt > 1 {
			f.stats.BatchedWrites++
			f.stats.BatchedCopies += uint64(cnt)
		}
	}
	f.mu.Unlock()
	if err == nil {
		err = werr
	}
	return err
}

// writeLoop is the portable batch write: one WriteToUDP per datagram.
// Per-datagram errors skip that datagram — fan-out loss is silent — and the
// first is returned with the number of datagrams written.
func (f *Fabric) writeLoop(dsts []*net.UDPAddr, bufs [][]byte) (int, error) {
	n := 0
	var err error
	for i := range bufs {
		if _, werr := f.conn.WriteToUDP(bufs[i], dsts[i]); werr != nil {
			if err == nil {
				err = werr
			}
			continue
		}
		n++
	}
	return n, err
}

// Stats returns a snapshot of the fabric counters.
func (f *Fabric) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// delivery is one pooled delivery event: the decoded message and the local
// nodes a datagram (or a local send) delivers it to, in listed order.
// Pooling keeps a steady-state delivery from allocating a closure and slice
// per datagram.
type delivery struct {
	f     *Fabric
	from  packet.IPv4Addr
	msg   packet.Message
	nodes []backhaul.Node
	run   func()
}

func (d *delivery) fire() {
	for _, n := range d.nodes {
		n.HandleBackhaul(d.from, d.msg)
	}
	d.msg = nil
	d.nodes = d.nodes[:0]
	d.f.dpool.Put(d)
}

// deliver decodes raw once and posts one delivery event for every listed
// target hosted here, preserving listed order. A message the codec rejects —
// which includes any bytes after a well-formed one, so a datagram is exactly
// one message — is one decode error and delivers nothing; a target not
// hosted here is unroutable. A fabric must survive any bytes the network
// hands it (FuzzDecode and FuzzDatagram pin the "no panics" half of that). raw is not retained: Decode copies everything it
// keeps, so callers may reuse the buffer immediately.
func (f *Fabric) deliver(from packet.IPv4Addr, tos []packet.IPv4Addr, raw []byte) {
	msg, err := packet.Decode(raw)
	f.mu.Lock()
	if err != nil {
		f.stats.DecodeErrs++
		f.mu.Unlock()
		return
	}
	d := f.dpool.Get().(*delivery)
	for _, to := range tos {
		node := f.nodes[to]
		if node == nil {
			f.stats.Unroutable++
			continue
		}
		f.stats.Received++
		d.nodes = append(d.nodes, node)
	}
	f.mu.Unlock()
	if len(d.nodes) == 0 {
		f.dpool.Put(d)
		return
	}
	d.from, d.msg = from, msg
	f.w.Post(d.run)
}

// readLoop receives datagrams until the socket closes. One buffer serves
// every read: receive decodes synchronously and never retains it, so the
// inbound path allocates nothing per datagram beyond the decoded message
// itself (TestReceiveAllocsOnlyTheDecodedMessage).
func (f *Fabric) readLoop() {
	defer close(f.done)
	buf := make([]byte, maxDatagram)
	for {
		n, err := f.conn.Read(buf)
		if err != nil {
			return // closed socket (or unrecoverable error): reader exits
		}
		f.receive(buf[:n])
	}
}

// receive parses one inbound datagram — sender, count, target list — and
// hands the payload to deliver. A datagram too short for its target list,
// or listing none, is one decode error.
func (f *Fabric) receive(dg []byte) {
	if len(dg) < 5 || dg[4] == 0 || len(dg) < 5+4*int(dg[4]) {
		f.mu.Lock()
		f.stats.DecodeErrs++
		f.mu.Unlock()
		return
	}
	var from packet.IPv4Addr
	copy(from[:], dg)
	cnt := int(dg[4])
	f.rscratch = f.rscratch[:0]
	for i := 0; i < cnt; i++ {
		var to packet.IPv4Addr
		copy(to[:], dg[5+4*i:])
		f.rscratch = append(f.rscratch, to)
	}
	f.deliver(from, f.rscratch, dg[5+4*cnt:])
}
