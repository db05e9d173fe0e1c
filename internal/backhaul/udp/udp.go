// Package udp is a live node's socket (DESIGN.md §12): the remote port of
// the node's backhaul.Switch, so controller and AP protocol cores that
// exchange decoded copies in simulation exchange their actual wire
// encodings between processes in live mode. The paper's backhaul is a
// switched Ethernet LAN (§4); UDP over that LAN preserves its two properties
// the protocols depend on — sub-millisecond delivery and occasional silent
// loss (§3.1.2's 30 ms retransmission timeout exists for exactly that).
//
// Addressing stays virtual: nodes keep their simulator identities
// (packet.ControllerIP, packet.APIP(i)) and a static table maps each remote
// virtual address to the UDP endpoint hosting it. Every datagram carries one
// copy:
//
//	[4B from][4B to][packet.Encode(msg)]
//
// so a single socket can host several virtual nodes and the receiver can
// attribute the message without trusting the kernel-reported source. The
// switch encodes a message once and hands the port each remote copy as its
// loop reaches it; the §3.1.1 fan-out is one datagram per AP, as on the
// paper's LAN, and a lost datagram loses one copy, as the simulator's
// per-copy Drop hook does.
//
// The reader goroutine parses each inbound datagram's sender and target and
// hands it to the node's runtime.Wall with Post, which serializes it onto
// the one engine the protocol cores run on; there the switch decodes it and
// delivers it to the local target. Every send and every delivery runs on
// that goroutine — the same one-event-at-a-time world as in simulation.
package udp

import (
	"fmt"
	"net"
	"sync/atomic"

	"wgtt/internal/backhaul"
	"wgtt/internal/packet"
	"wgtt/internal/runtime"
)

// maxDatagram bounds one datagram on the wire: the sender and target, the
// codec's 3-byte envelope, and a 16-bit payload length.
const maxDatagram = 4 + 4 + 3 + 65535

// Stats counts inbound socket activity; the per-copy send ledger is the
// switch's.
type Stats struct {
	DecodeErrs uint64 // inbound datagrams dropped as malformed
	Unroutable uint64 // inbound copies for addresses not hosted here
}

// Port is the switch's remote port over one UDP socket.
type Port struct {
	w    *runtime.Wall
	sw   *backhaul.Switch
	conn *net.UDPConn

	// peers maps each remote virtual address to the UDP endpoint hosting
	// it; immutable after New.
	peers map[packet.IPv4Addr]*net.UDPAddr

	// buf is the datagram buffer, engine goroutine only.
	buf []byte

	// free recycles inbound datagrams: the reader takes them, the engine
	// goroutine returns them. Its 64 slots cover the datagrams a node
	// receives between two passes of its run loop; past that the reader
	// allocates and the surplus is dropped on return.
	free chan *inbound

	decodeErrs, unroutable atomic.Uint64

	done chan struct{}
}

// New builds the port on a pre-bound socket and installs it as sw's remote
// port. table maps every REMOTE virtual address to its "host:port"; local
// nodes attach to sw. Call Start once they are attached. Inbound messages
// are posted to w, whose engine sw must run on.
func New(w *runtime.Wall, sw *backhaul.Switch, conn *net.UDPConn, table map[packet.IPv4Addr]string) (*Port, error) {
	p := &Port{
		w:     w,
		sw:    sw,
		conn:  conn,
		peers: make(map[packet.IPv4Addr]*net.UDPAddr, len(table)),
		free:  make(chan *inbound, 64),
	}
	for addr, hostport := range table {
		ua, err := net.ResolveUDPAddr("udp", hostport)
		if err != nil {
			return nil, fmt.Errorf("udp: resolving %v -> %q: %w", addr, hostport, err)
		}
		p.peers[addr] = ua
	}
	sw.Remote = p
	return p, nil
}

// Start launches the reader goroutine, which ends when the socket closes.
func (p *Port) Start() {
	p.done = make(chan struct{})
	go p.readLoop()
}

// Close shuts the socket down and waits for the reader goroutine.
func (p *Port) Close() error {
	err := p.conn.Close()
	if p.done != nil {
		<-p.done
	}
	return err
}

// Stats returns a snapshot of the socket counters.
func (p *Port) Stats() Stats {
	return Stats{DecodeErrs: p.decodeErrs.Load(), Unroutable: p.unroutable.Load()}
}

// Routes implements backhaul.Port.
func (p *Port) Routes(to packet.IPv4Addr) bool {
	_, ok := p.peers[to]
	return ok
}

// Write implements backhaul.Port: one datagram carrying one copy.
func (p *Port) Write(from, to packet.IPv4Addr, raw []byte) error {
	p.buf = append(append(append(p.buf[:0], from[:]...), to[:]...), raw...)
	_, err := p.conn.WriteToUDP(p.buf, p.peers[to])
	return err
}

// inbound is one received datagram on its way from the reader goroutine to
// the engine: its sender, its target and a copy of its payload.
type inbound struct {
	p        *Port
	from, to packet.IPv4Addr
	raw      []byte
	run      func() // deliver, bound once per pooled datagram
}

// deliver runs on the engine goroutine: the switch decodes the payload and
// delivers it to the local target. A payload the codec rejects — which
// includes any bytes after a well-formed message, so a datagram is exactly
// one message — is one decode error; a target not hosted here is
// unroutable.
func (in *inbound) deliver() {
	p := in.p
	unroutable, err := p.sw.Receive(in.from, in.to, in.raw)
	if err != nil {
		p.decodeErrs.Add(1)
	}
	if unroutable {
		p.unroutable.Add(1)
	}
	select {
	case p.free <- in:
	default:
	}
}

// readLoop receives datagrams until the socket closes. One buffer serves
// every read: receive copies what it keeps, so the inbound path allocates
// nothing per datagram beyond the decoded message itself
// (TestReceiveAllocsOnlyTheDecodedMessage).
func (p *Port) readLoop() {
	defer close(p.done)
	buf := make([]byte, maxDatagram)
	for {
		n, err := p.conn.Read(buf)
		if err != nil {
			return // closed socket (or unrecoverable error): reader exits
		}
		p.receive(buf[:n])
	}
}

// receive parses one inbound datagram's sender and target and posts it to
// the engine. A datagram too short for both is one decode error. A port
// must survive any bytes the network hands it (FuzzDatagram).
func (p *Port) receive(dg []byte) {
	if len(dg) < 8 {
		p.decodeErrs.Add(1)
		return
	}
	var in *inbound
	select {
	case in = <-p.free:
	default:
		in = &inbound{p: p}
		in.run = in.deliver
	}
	copy(in.from[:], dg)
	copy(in.to[:], dg[4:])
	in.raw = append(in.raw[:0], dg[8:]...)
	p.w.Post(in.run)
}
