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
// address to the UDP endpoint hosting it. A unicast datagram is
//
//	[4B from][4B to][packet.Encode(msg)]
//
// so a single socket can host several virtual nodes and the receiver can
// attribute the message without trusting the kernel-reported source.
//
// The §3.1.1 downlink fan-out replicates one message to many virtual APs at
// once; SendMany is its line-rate path (DESIGN.md §14). The message is
// encoded once, targets are grouped by hosting endpoint, and every group
// collapses into a single batch datagram addressed to the reserved
// 255.255.255.255 virtual address:
//
//	[4B from][4B 255.255.255.255][1B count][4B to]×count[packet.Encode(msg)]
//
// The receiver decodes the payload once and delivers it to each listed
// local target in order. The per-endpoint datagrams themselves are written
// with one sendmmsg system call on Linux, so a 128-AP fan-out costs a
// handful of syscalls instead of 128. The trade: one lost batch datagram
// loses every copy it carried — acceptable because the copies are redundant
// by design (any AP that heard the client can deliver).
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

// header is the datagram prefix: two 4-byte virtual IPv4 addresses.
const header = 8

// maxBatch bounds how many copies one batch datagram carries (its count
// field is a single byte). Endpoints hosting more targets get several
// batch datagrams.
const maxBatch = 255

// batchAddr is the reserved virtual destination that marks a batch
// datagram. The address scheme (packet.ControllerIP, packet.APIP,
// packet.ClientIP) never mints it, so it cannot collide with a real node.
var batchAddr = packet.IPv4Addr{255, 255, 255, 255}

// maxDatagram bounds one datagram on the wire: header, the largest batch
// prefix (count byte plus maxBatch targets), the codec's 3-byte envelope,
// and a 16-bit payload length.
const maxDatagram = header + 1 + 4*maxBatch + 3 + 65535

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

// epGroup accumulates one endpoint's targets during a SendMany call.
type epGroup struct {
	tos []packet.IPv4Addr
}

// Fabric implements backhaul.Fabric over one UDP socket.
type Fabric struct {
	w    *runtime.Wall
	conn *net.UDPConn

	mu    sync.Mutex
	nodes map[packet.IPv4Addr]backhaul.Node
	peers map[packet.IPv4Addr]*net.UDPAddr

	// Endpoint table, immutable after New: eps lists the distinct UDP
	// endpoints the peer table names, epIndex maps each remote virtual
	// address to its endpoint — SendMany's grouping key.
	eps     []*net.UDPAddr
	epIndex map[packet.IPv4Addr]int

	// smu serializes the send path and guards its scratch state below;
	// holding it across the socket write also keeps concurrent senders'
	// datagrams whole.
	smu     sync.Mutex
	enc     []byte            // reusable message encode buffer
	wbuf    []byte            // reusable unicast datagram buffer
	local   []packet.IPv4Addr // SendMany's local-target scratch
	groups  []epGroup         // SendMany's per-endpoint accumulators
	touched []int             // endpoints used by the current SendMany
	bufs    [][]byte          // reusable per-datagram build buffers
	dgrams  [][]byte          // datagrams for the current batch write
	dsts    []*net.UDPAddr    // their destinations
	dcnt    []int             // their copy counts
	bw      batchWriter       // platform batch-write vectors (sendmmsg)

	// rscratch is the reader goroutine's batch-target scratch.
	rscratch []packet.IPv4Addr

	// dpool recycles combined-delivery events: the reader and send
	// goroutines allocate them, the run loop returns them.
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
		peers:   make(map[packet.IPv4Addr]*net.UDPAddr, len(table)),
		epIndex: make(map[packet.IPv4Addr]int, len(table)),
		done:    make(chan struct{}),
	}
	f.dpool.New = func() any {
		d := &manyDispatch{f: f}
		d.run = d.fire
		return d
	}
	for addr, ep := range table {
		if addr == batchAddr {
			return nil, fmt.Errorf("udp: %v is reserved for batch datagrams", addr)
		}
		ua, err := net.ResolveUDPAddr("udp", ep)
		if err != nil {
			return nil, fmt.Errorf("udp: resolving %v -> %q: %w", addr, ep, err)
		}
		f.peers[addr] = ua
	}
	// Endpoint table: walk the peers in ascending address order so endpoint
	// IDs are deterministic for a given peer table, whatever the map order
	// was.
	order := make([]packet.IPv4Addr, 0, len(f.peers))
	for addr := range f.peers {
		order = append(order, addr)
	}
	sort.Slice(order, func(i, j int) bool { return bytes.Compare(order[i][:], order[j][:]) < 0 })
	byEndpoint := make(map[string]int, len(table))
	for _, addr := range order {
		ua := f.peers[addr]
		key := ua.String()
		id, ok := byEndpoint[key]
		if !ok {
			id = len(f.eps)
			f.eps = append(f.eps, ua)
			byEndpoint[key] = id
		}
		f.epIndex[addr] = id
	}
	f.groups = make([]epGroup, len(f.eps))
	return f, nil
}

// Attach implements backhaul.Fabric: registers a node hosted by this
// process. Attach before Start; attaching twice replaces the node.
func (f *Fabric) Attach(addr packet.IPv4Addr, n backhaul.Node) {
	if n == nil {
		panic("udp: nil node")
	}
	if addr == batchAddr {
		panic("udp: batch address is reserved")
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

// Send implements backhaul.Fabric. Every message — remote or loopback to a
// node on this same fabric — passes through its wire encoding; remote ones
// additionally pass through a real socket. Sent/Bytes count only after a
// successful write: a failed WriteToUDP was never sent, matching the
// in-memory Switch's dropped-sends-uncounted rule.
func (f *Fabric) Send(from, to packet.IPv4Addr, msg packet.Message) error {
	f.smu.Lock()
	defer f.smu.Unlock()
	f.mu.Lock()
	peer := f.peers[to]
	local := f.nodes[to]
	f.mu.Unlock()
	if peer == nil && local == nil {
		return fmt.Errorf("udp: no route to %v", to)
	}
	if peer == nil {
		// Local virtual node: skip the socket but not the codec — decode
		// the encoded bytes exactly as the remote path would.
		f.enc = packet.EncodeInto(f.enc[:0], msg)
		size := uint64(len(f.enc))
		f.dispatch(from, to, f.enc)
		f.countSent(1, size)
		return nil
	}
	buf := f.wbuf[:0]
	buf = append(buf, from[:]...)
	buf = append(buf, to[:]...)
	buf = packet.EncodeInto(buf, msg)
	f.wbuf = buf
	size := uint64(len(buf) - header)
	if _, err := f.conn.WriteToUDP(buf, peer); err != nil {
		return err
	}
	f.countSent(1, size)
	return nil
}

// countSent records n sent datagrams of size message bytes each.
func (f *Fabric) countSent(n int, size uint64) {
	f.mu.Lock()
	f.stats.Sent += uint64(n)
	f.stats.Bytes += uint64(n) * size
	f.mu.Unlock()
}

// SendMany implements backhaul.Fabric (DESIGN.md §14): encode msg once,
// group the targets by hosting endpoint, and write one batch datagram per
// endpoint — a sendmmsg batch on Linux — instead of one datagram per copy.
// Local targets are decoded once and delivered in listed order. Targets
// with no route are skipped, the same outcome as the per-target Send loop
// whose errors the fan-out path ignores. msg is never retained.
func (f *Fabric) SendMany(from packet.IPv4Addr, tos []packet.IPv4Addr, msg packet.Message) {
	f.smu.Lock()
	defer f.smu.Unlock()
	f.enc = packet.EncodeInto(f.enc[:0], msg)
	raw := f.enc
	size := uint64(len(raw))

	f.local = f.local[:0]
	f.mu.Lock()
	for _, to := range tos {
		if id, ok := f.epIndex[to]; ok {
			g := &f.groups[id]
			if len(g.tos) == 0 {
				f.touched = append(f.touched, id)
			}
			g.tos = append(g.tos, to)
			continue
		}
		if f.nodes[to] != nil {
			f.local = append(f.local, to)
		}
	}
	f.mu.Unlock()

	if len(f.local) > 0 {
		f.dispatchMany(from, f.local, raw)
		f.countSent(len(f.local), size)
	}
	if len(f.touched) == 0 {
		return
	}

	// One datagram per endpoint (chunked if an endpoint hosts more than
	// maxBatch targets); single-copy groups use the plain unicast format so
	// a fabric that never batches stays wire-compatible with old peers.
	f.dgrams = f.dgrams[:0]
	f.dsts = f.dsts[:0]
	f.dcnt = f.dcnt[:0]
	nd := 0
	for _, id := range f.touched {
		g := &f.groups[id]
		for start := 0; start < len(g.tos); start += maxBatch {
			end := start + maxBatch
			if end > len(g.tos) {
				end = len(g.tos)
			}
			chunk := g.tos[start:end]
			if nd == len(f.bufs) {
				f.bufs = append(f.bufs, nil)
			}
			buf := f.bufs[nd][:0]
			buf = append(buf, from[:]...)
			if len(chunk) == 1 {
				buf = append(buf, chunk[0][:]...)
			} else {
				buf = append(buf, batchAddr[:]...)
				buf = append(buf, byte(len(chunk)))
				for _, to := range chunk {
					buf = append(buf, to[:]...)
				}
			}
			buf = append(buf, raw...)
			f.bufs[nd] = buf
			f.dgrams = append(f.dgrams, buf)
			f.dsts = append(f.dsts, f.eps[id])
			f.dcnt = append(f.dcnt, len(chunk))
			nd++
		}
		g.tos = g.tos[:0]
	}
	f.touched = f.touched[:0]

	written := f.writeBatch(f.dsts, f.dgrams)
	f.mu.Lock()
	for i := 0; i < written; i++ {
		cnt := f.dcnt[i]
		f.stats.Sent++
		f.stats.Bytes += uint64(cnt) * size
		if cnt > 1 {
			f.stats.BatchedWrites++
			f.stats.BatchedCopies += uint64(cnt)
		}
	}
	f.mu.Unlock()
}

// writeLoop is the portable batch write: one WriteToUDP per datagram.
// Per-datagram errors are skipped — fan-out loss is silent, like the
// per-target Send loop it replaces. Returns the datagrams written.
func (f *Fabric) writeLoop(dsts []*net.UDPAddr, bufs [][]byte) int {
	n := 0
	for i := range bufs {
		if _, err := f.conn.WriteToUDP(bufs[i], dsts[i]); err != nil {
			continue
		}
		n++
	}
	return n
}

// Stats returns a snapshot of the fabric counters.
func (f *Fabric) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// manyDispatch is one pooled combined-delivery event: the decoded message
// and the local nodes a batch (or local fan-out) delivers it to, in listed
// order. Pooling keeps the steady-state fan-out from allocating a closure
// and slice per datagram.
type manyDispatch struct {
	f     *Fabric
	from  packet.IPv4Addr
	msg   packet.Message
	nodes []backhaul.Node
	run   func()
}

func (d *manyDispatch) fire() {
	for _, n := range d.nodes {
		n.HandleBackhaul(d.from, d.msg)
	}
	d.msg = nil
	d.nodes = d.nodes[:0]
	d.f.dpool.Put(d)
}

// dispatch decodes one encoded message and posts it onto the run loop for
// the node hosted at to. Malformed or unroutable datagrams are counted and
// dropped — a fabric must survive any bytes the network hands it (FuzzDecode
// and FuzzDatagram pin the "no panics" half of that). raw is not
// retained: Decode copies everything it keeps, so callers may reuse the
// buffer immediately.
func (f *Fabric) dispatch(from, to packet.IPv4Addr, raw []byte) {
	msg, err := packet.Decode(raw)
	f.mu.Lock()
	if err != nil {
		f.stats.DecodeErrs++
		f.mu.Unlock()
		return
	}
	if len(raw) != 3+msg.WireSize() {
		// Trailing bytes after a well-formed message: the codec tolerates
		// them (stream framing), but a datagram is exactly one message —
		// count the malformation rather than silently accepting it.
		f.stats.DecodeErrs++
		f.mu.Unlock()
		return
	}
	node := f.nodes[to]
	if node == nil {
		f.stats.Unroutable++
		f.mu.Unlock()
		return
	}
	f.stats.Received++
	f.mu.Unlock()
	f.w.Post(func() { node.HandleBackhaul(from, msg) })
}

// dispatchMany decodes raw once and posts a single combined delivery event
// for every listed target hosted here, preserving listed order — the
// receive half of the batch datagram format. raw is not retained.
func (f *Fabric) dispatchMany(from packet.IPv4Addr, tos []packet.IPv4Addr, raw []byte) {
	msg, err := packet.Decode(raw)
	f.mu.Lock()
	if err != nil || len(raw) != 3+msg.WireSize() {
		f.stats.DecodeErrs++
		f.mu.Unlock()
		return
	}
	d := f.dpool.Get().(*manyDispatch)
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

// handleBatch parses one inbound batch datagram: count, target list,
// payload. b is the datagram body after the 8-byte addressing header.
func (f *Fabric) handleBatch(from packet.IPv4Addr, b []byte) {
	if len(b) < 1 {
		f.countDecodeErr()
		return
	}
	cnt := int(b[0])
	if cnt == 0 || len(b) < 1+4*cnt+3 {
		f.countDecodeErr()
		return
	}
	f.rscratch = f.rscratch[:0]
	for i := 0; i < cnt; i++ {
		var to packet.IPv4Addr
		copy(to[:], b[1+4*i:])
		f.rscratch = append(f.rscratch, to)
	}
	f.dispatchMany(from, f.rscratch, b[1+4*cnt:])
}

func (f *Fabric) countDecodeErr() {
	f.mu.Lock()
	f.stats.DecodeErrs++
	f.mu.Unlock()
}

// readLoop receives datagrams until the socket closes. One buffer serves
// every read: receive decodes synchronously and never retains it, so the
// inbound path allocates nothing per datagram beyond the decoded message
// itself.
func (f *Fabric) readLoop() {
	defer close(f.done)
	buf := make([]byte, maxDatagram)
	for {
		n, _, err := f.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed socket (or unrecoverable error): reader exits
		}
		f.receive(buf[:n])
	}
}

// receive parses one inbound datagram: the addressing header, then a batch
// (handleBatch) or a single message (dispatch).
func (f *Fabric) receive(dg []byte) {
	if len(dg) < header+3 {
		f.countDecodeErr()
		return
	}
	var from, to packet.IPv4Addr
	copy(from[:], dg[:4])
	copy(to[:], dg[4:8])
	if to == batchAddr {
		f.handleBatch(from, dg[header:])
		return
	}
	f.dispatch(from, to, dg[header:])
}
