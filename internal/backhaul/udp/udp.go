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
// virtual address to the UDP endpoint hosting it. Every datagram is
//
//	[4B from][1B count][4B to]×count[packet.Encode(msg)]
//
// with count ≥ 1, so a single socket can host several virtual nodes and the
// receiver can attribute the message without trusting the kernel-reported
// source. The switch encodes a message once, groups its remote copies by
// the endpoint the port routes them to, and hands the port each group,
// which becomes one datagram: the §3.1.1 fan-out's line-rate path
// (DESIGN.md §14). The trade:
// one lost datagram loses every copy it carried — acceptable because the
// copies are redundant by design (any AP that heard the client can deliver).
//
// The reader goroutine parses each inbound datagram's sender and target
// list and hands it to the node's runtime.Wall with Post, which serializes
// it onto the one engine the protocol cores run on; there the switch decodes
// it and delivers it to the listed local nodes. Every send and every
// delivery runs on that goroutine — the same one-event-at-a-time world as in
// simulation.
package udp

import (
	"bytes"
	"fmt"
	"net"
	"sort"
	"sync/atomic"

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

// Stats counts socket activity; the per-copy ledger is the switch's.
type Stats struct {
	Sent       uint64 // datagrams written
	DecodeErrs uint64 // inbound datagrams dropped as malformed
	Unroutable uint64 // inbound copies for addresses not hosted here
}

// Port is the switch's remote port over one UDP socket.
type Port struct {
	w    *runtime.Wall
	sw   *backhaul.Switch
	conn *net.UDPConn

	// Route table, immutable after New: eps lists the distinct UDP
	// endpoints the peer table names, epIndex maps each remote virtual
	// address to its endpoint.
	eps     []*net.UDPAddr
	epIndex map[packet.IPv4Addr]int

	// buf is the datagram buffer, engine goroutine only.
	buf []byte

	// free recycles inbound datagrams: the reader takes them, the engine
	// goroutine returns them. Its 64 slots cover the datagrams a node
	// receives between two passes of its run loop; past that the reader
	// allocates and the surplus is dropped on return.
	free chan *inbound

	sent, decodeErrs, unroutable atomic.Uint64

	done chan struct{}
}

// New builds the port on a pre-bound socket and installs it as sw's remote
// port. table maps every REMOTE virtual address to its "host:port"; local
// nodes attach to sw. Call Start once they are attached. Inbound messages
// are posted to w, whose engine sw must run on.
func New(w *runtime.Wall, sw *backhaul.Switch, conn *net.UDPConn, table map[packet.IPv4Addr]string) (*Port, error) {
	p := &Port{
		w:       w,
		sw:      sw,
		conn:    conn,
		epIndex: make(map[packet.IPv4Addr]int, len(table)),
		free:    make(chan *inbound, 64),
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
			id = len(p.eps)
			p.eps = append(p.eps, ua)
			byEndpoint[key] = id
		}
		p.epIndex[addr] = id
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
	return Stats{Sent: p.sent.Load(), DecodeErrs: p.decodeErrs.Load(), Unroutable: p.unroutable.Load()}
}

// Routes implements backhaul.Port.
func (p *Port) Routes() map[packet.IPv4Addr]int { return p.epIndex }

// Write implements backhaul.Port: one datagram listing the targets (several
// past maxBatch). A failed write loses that datagram's copies.
func (p *Port) Write(from packet.IPv4Addr, ep int, tos []packet.IPv4Addr, raw []byte) (int, error) {
	written := 0
	var err error
	for len(tos) > 0 {
		chunk := tos[:min(len(tos), maxBatch)]
		tos = tos[len(chunk):]
		buf := append(append(p.buf[:0], from[:]...), byte(len(chunk)))
		for _, to := range chunk {
			buf = append(buf, to[:]...)
		}
		p.buf = append(buf, raw...)
		if _, werr := p.conn.WriteToUDP(p.buf, p.eps[ep]); werr != nil {
			if err == nil {
				err = werr
			}
			continue
		}
		p.sent.Add(1)
		written += len(chunk)
	}
	return written, err
}

// inbound is one received datagram on its way from the reader goroutine to
// the engine: its sender, its targets and a copy of its payload.
type inbound struct {
	p    *Port
	from packet.IPv4Addr
	tos  []packet.IPv4Addr
	raw  []byte
	run  func() // deliver, bound once per pooled datagram
}

// deliver runs on the engine goroutine: the switch decodes the payload and
// delivers it to the listed local nodes. A payload the codec rejects —
// which includes any bytes after a well-formed message, so a datagram is
// exactly one message — is one decode error; a target not hosted here is
// unroutable.
func (in *inbound) deliver() {
	p := in.p
	unroutable, err := p.sw.Receive(in.from, in.tos, in.raw)
	if err != nil {
		p.decodeErrs.Add(1)
	}
	p.unroutable.Add(uint64(unroutable))
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

// receive parses one inbound datagram's sender and target list and posts
// it to the engine. A datagram too short for its target list, or listing
// none, is one decode error. A port must survive any bytes the network
// hands it (FuzzDatagram).
func (p *Port) receive(dg []byte) {
	if len(dg) < 5 || dg[4] == 0 || len(dg) < 5+4*int(dg[4]) {
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
	cnt := int(dg[4])
	in.tos = in.tos[:0]
	for i := 0; i < cnt; i++ {
		var to packet.IPv4Addr
		copy(to[:], dg[5+4*i:])
		in.tos = append(in.tos, to)
	}
	in.raw = append(in.raw[:0], dg[5+4*cnt:]...)
	p.w.Post(in.run)
}
