// Package backhaul models the switched Ethernet LAN that interconnects the
// WGTT APs and the controller (§4). Only two of its properties matter to the
// protocols built on top: sub-millisecond unicast latency, and the fact that
// control messages can occasionally be lost (the paper's switching protocol
// carries a 30 ms retransmission timeout for exactly that case), which fault
// injection drives through the Drop hook.
package backhaul

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"wgtt/internal/packet"
	"wgtt/internal/sim"
)

// Node receives backhaul messages.
type Node interface {
	// HandleBackhaul delivers one message sent to this node's address. A
	// *packet.DownData, *packet.CSIReport or *packet.BlockAckFwd is valid only
	// during the call — the Switch decodes those into storage it reuses for a
	// later message — so a node copies what it keeps of them; the *Packet in
	// a DownData is the node's to keep. Every other message is the node's own.
	HandleBackhaul(from packet.IPv4Addr, msg packet.Message)
}

// NodeFunc adapts a function to the Node interface.
type NodeFunc func(from packet.IPv4Addr, msg packet.Message)

// HandleBackhaul implements Node.
func (f NodeFunc) HandleBackhaul(from packet.IPv4Addr, msg packet.Message) { f(from, msg) }

// Fabric is the transport abstraction the protocol cores send through. The
// Switch below implements it in simulation and, with a UDP remote port
// (backhaul/udp), in live mode; tests substitute fakes (DESIGN.md §12).
type Fabric interface {
	// Attach registers a node at an address; attaching twice replaces the
	// previous node.
	Attach(addr packet.IPv4Addr, n Node)
	// Send delivers msg from one address to another. Sending to an address
	// the fabric cannot resolve returns an error — an assembly bug, not a
	// transient loss (losses are silent, as on a real network). Like
	// SendMany it never retains msg.
	Send(from, to packet.IPv4Addr, msg packet.Message) error
	// SendMany is the fan-out path: msg is encoded once and delivered from
	// one address to each target, in slice order, instead of a per-target
	// Send that re-encodes each copy. Targets the fabric cannot resolve are
	// skipped — the outcome of the per-target Send loop whose errors the
	// fan-out ignores. Implementations must never retain msg past the call
	// — they materialize the delivered copy (or the wire bytes)
	// synchronously, so callers may reuse a scratch message immediately.
	// Each target sees messages from one sender in the order they were
	// sent, exactly as with the equivalent Send loop.
	SendMany(from packet.IPv4Addr, tos []packet.IPv4Addr, msg packet.Message)
}

// Port is a Switch's remote port: the way to addresses hosted outside the
// switch. In live mode it is the node's UDP socket (backhaul/udp); in
// simulation every node is attached and there is none.
type Port interface {
	// Routes reports whether the port reaches to. It reaches no address
	// attached to the switch (a node's peer table lists the other nodes).
	Routes(to packet.IPv4Addr) bool
	// Write sends raw, one encoded message, from one address to one routed
	// target. Loss is silent; the error is a failed write. raw is not
	// retained.
	Write(from, to packet.IPv4Addr, raw []byte) error
}

// Switch is the Ethernet fabric. It is store-and-forward with a fixed
// one-way latency; bandwidth is assumed ample (the paper's gigabit LAN
// never saturates at roadside AP loads). Every message runs through its
// wire encoding and the decoded copy is what gets delivered, so the binary
// formats are exercised on every simulated send.
type Switch struct {
	eng     *sim.Engine
	latency sim.Time
	nodes   map[packet.IPv4Addr]Node

	// Remote, if non-nil, carries copies for targets not attached here.
	// Only backhaul/udp sets it, on a live node's zero-latency switch.
	Remote Port

	// Drop, if non-nil, is consulted per message; returning true discards
	// it. Drop and Delay are fault injection's (DESIGN.md §11): outside
	// tests only chaos.Injector.Arm sets them.
	Drop func(to packet.IPv4Addr, msg packet.Message) bool

	// Delay, if non-nil, returns extra one-way latency added to this
	// message on top of the base switch latency (backhaul congestion /
	// latency-spike injection, DESIGN.md §11). Non-positive returns add
	// nothing.
	Delay func(to packet.IPv4Addr, msg packet.Message) sim.Time

	sent     uint64
	dropped  uint64
	bytes    uint64
	unrouted uint64

	// encScratch is the reusable encode buffer and unicast/unicastNode the
	// reusable one-target list of a Send and its node; the switch runs on
	// the single simulation goroutine, so one of each serves every send.
	encScratch  []byte
	unicast     [1]packet.IPv4Addr
	unicastNode [1]Node
	// lastTos and lastNodes memoize resolve: the last SendMany target list
	// and the node attached at each of its addresses. Attach, the only
	// writer of nodes, clears them.
	lastTos   []packet.IPv4Addr
	lastNodes []Node
	// dfree pools delivery events so a steady-state send schedules its
	// delivery without allocating.
	dfree []*delivery
}

// NewSwitch creates a switch with the given one-way delivery latency.
func NewSwitch(eng *sim.Engine, latency sim.Time) *Switch {
	return &Switch{
		eng:     eng,
		latency: latency,
		nodes:   make(map[packet.IPv4Addr]Node),
	}
}

// Attach registers a node at an address. Attaching twice replaces the
// previous node (useful in tests).
func (s *Switch) Attach(addr packet.IPv4Addr, n Node) {
	if n == nil {
		panic("backhaul: nil node")
	}
	s.nodes[addr] = n
	s.lastTos, s.lastNodes = s.lastTos[:0], s.lastNodes[:0]
}

// Send delivers msg to the node at to after the switch latency, or writes
// it to the remote port. Sending to an address neither knows returns an
// error — it is always an assembly bug — and so does a failed write.
func (s *Switch) Send(from, to packet.IPv4Addr, msg packet.Message) error {
	node := s.nodes[to]
	if node == nil && !s.routes(to) {
		return fmt.Errorf("backhaul: no node at %v", to)
	}
	s.unicast[0], s.unicastNode[0] = to, node
	return s.send(from, s.unicast[:], s.unicastNode[:], msg)
}

// SendMany implements Fabric: Send to every known target, in slice order,
// off one encoding of msg. A message the codec rejects reaches
// nobody, as the Send loop whose errors a fan-out ignores would have it.
func (s *Switch) SendMany(from packet.IPv4Addr, tos []packet.IPv4Addr, msg packet.Message) {
	_ = s.send(from, tos, s.resolve(tos), msg)
}

// resolve returns the node attached at each address of tos, nil where none
// is. A fan-out repeats its target list packet after packet, so the nodes
// are looked up once per list, not once per copy: while tos equals the last
// list resolved, its nodes are returned as they were.
func (s *Switch) resolve(tos []packet.IPv4Addr) []Node {
	if !slices.Equal(tos, s.lastTos) {
		s.lastTos = append(s.lastTos[:0], tos...)
		s.lastNodes = slices.Grow(s.lastNodes[:0], len(tos))
		for _, to := range tos {
			s.lastNodes = append(s.lastNodes, s.nodes[to])
		}
	}
	return s.lastNodes
}

// delivery is one pooled delivery event: the decoded copy of a message and
// the nodes it reaches at one instant, walked in target order. The engine
// delivers same-time events FIFO and send schedules nothing in between, so
// the per-node delivery sequence is that of one event per target.
type delivery struct {
	sw    *Switch
	from  packet.IPv4Addr
	msg   packet.Message
	nodes []Node
	// scratch holds msg when it is one of the envelopes packet.Scratch
	// pools, until the recycled delivery decodes its next message.
	scratch packet.Scratch
	// run is the pre-bound method value handed to the engine, allocated
	// once per pooled delivery instead of once per send.
	run func()
}

func (d *delivery) fire() {
	for _, n := range d.nodes {
		n.HandleBackhaul(d.from, d.msg)
	}
	d.recycle()
}

func (d *delivery) recycle() {
	d.msg = nil
	d.nodes = d.nodes[:0]
	d.sw.dfree = append(d.sw.dfree, d)
}

// getDelivery takes a delivery off the free list and decodes raw into it:
// every delivery carries a decoded copy of its own. The delivery comes back
// with the decode error too, for the caller to recycle.
func (s *Switch) getDelivery(from packet.IPv4Addr, raw []byte) (*delivery, error) {
	var d *delivery
	if n := len(s.dfree); n > 0 {
		d = s.dfree[n-1]
		s.dfree = s.dfree[:n-1]
	} else {
		d = &delivery{sw: s}
		d.run = d.fire
	}
	var err error
	d.from = from
	d.msg, err = packet.DecodeInto(raw, &d.scratch)
	return d, err
}

// send is the one delivery path: encode msg once into the scratch buffer
// and hand a copy to every known target — which is what lets callers reuse
// msg immediately (the non-retention contract); nodes[i] is the node
// attached at tos[i], nil if none. Attached targets share one
// decoded copy, delivered through one pooled event; each target the remote
// port routes gets the bytes, one Write where the loop reaches it; other
// targets are skipped, and a send with no attached target decodes nothing.
// bytes and sent count per copy delivered or written. The Drop and Delay
// hooks are consulted once per (target, message) in target order, local or
// remote, so a fault-injected run's RNG draw sequence does not depend on
// how the caller grouped its sends.
func (s *Switch) send(from packet.IPv4Addr, tos []packet.IPv4Addr, nodes []Node, msg packet.Message) error {
	s.encScratch = packet.EncodeInto(s.encScratch[:0], msg)
	size := uint64(len(s.encScratch))
	hooked := s.Drop != nil || s.Delay != nil
	var d *delivery
	var werr error
	for i, to := range tos {
		if s.routes(to) {
			if hooked && s.faultedRemote(from, to, msg) {
				continue
			}
			if err := s.write(from, to, s.encScratch); werr == nil {
				werr = err
			}
			continue
		}
		node := nodes[i]
		if node == nil {
			s.unrouted++
			continue
		}
		if d == nil {
			var err error
			if d, err = s.getDelivery(from, s.encScratch); err != nil {
				// Only a message the codec refuses to carry gets here, as a
				// 12-bit field past packet.IndexMask.
				d.recycle()
				return fmt.Errorf("backhaul: wire round-trip of %v failed: %w", msg.Type(), err)
			}
		}
		if hooked && s.faulted(d, to, node, msg, size) {
			continue
		}
		s.bytes += size
		s.sent++
		d.nodes = append(d.nodes, node)
	}
	if d != nil {
		if len(d.nodes) == 0 {
			d.recycle()
		} else {
			s.eng.After(s.latency, d.run)
		}
	}
	return werr
}

// fault consults the Drop and Delay hooks for one copy: whether it is
// dropped, else the extra latency it takes.
func (s *Switch) fault(to packet.IPv4Addr, msg packet.Message) (extra sim.Time, dropped bool) {
	if s.Drop != nil && s.Drop(to, msg) {
		s.dropped++
		return 0, true
	}
	if s.Delay != nil {
		extra = s.Delay(to, msg)
	}
	return extra, false
}

// faulted reports whether one local copy of d's message stays out of d:
// dropped, or delayed — delivered by an event of its own, decoded from the
// same bytes, since d is recycled before the late one fires.
func (s *Switch) faulted(d *delivery, to packet.IPv4Addr, node Node, msg packet.Message, size uint64) bool {
	extra, dropped := s.fault(to, msg)
	if dropped || extra <= 0 {
		return dropped
	}
	s.bytes += size
	s.sent++
	late, _ := s.getDelivery(d.from, s.encScratch) // send has decoded these same bytes into d
	late.nodes = append(late.nodes, node)
	s.eng.After(s.latency+extra, late.run)
	return true
}

// faultedRemote is faulted for a copy bound for the remote port: whether it
// stays out of the send's writes — dropped, or delayed and written by an
// event of its own.
func (s *Switch) faultedRemote(from, to packet.IPv4Addr, msg packet.Message) bool {
	extra, dropped := s.fault(to, msg)
	if dropped || extra <= 0 {
		return dropped
	}
	// A late copy's failed write is a silent loss, as on the wire.
	raw := slices.Clone(s.encScratch)
	s.eng.After(s.latency+extra, func() { _ = s.write(from, to, raw) })
	return true
}

// routes reports whether the remote port, if any, reaches to.
func (s *Switch) routes(to packet.IPv4Addr) bool {
	return s.Remote != nil && s.Remote.Routes(to)
}

// write hands one remote copy to the port and counts it once written.
func (s *Switch) write(from, to packet.IPv4Addr, raw []byte) error {
	if err := s.Remote.Write(from, to, raw); err != nil {
		return err
	}
	s.sent++
	s.bytes += uint64(len(raw))
	return nil
}

// Receive delivers a message that arrived through the remote port — raw,
// its encoding, from one address to another — to the target attached here,
// now. It reports a target that is not attached, and the decode error of
// bytes the codec rejects, which deliver nothing. raw is not retained.
func (s *Switch) Receive(from, to packet.IPv4Addr, raw []byte) (unroutable bool, err error) {
	d, err := s.getDelivery(from, raw)
	node, ok := s.nodes[to]
	if err == nil && ok {
		d.nodes = append(d.nodes, node)
	}
	d.fire()
	return err == nil && !ok, err
}

// Stats reports the number of delivered or written and of dropped copies,
// and the total encoded bytes of everything sent.
func (s *Switch) Stats() (sent, dropped, bytes uint64) { return s.sent, s.dropped, s.bytes }

// Unrouted reports the number of copies SendMany skipped because neither the
// switch nor its remote port reaches the target — none in a simulated
// network, where every node is attached.
func (s *Switch) Unrouted() uint64 { return s.unrouted }

// DropTypes returns a Drop hook that discards messages of the listed types
// with probability p — e.g. only Stop and SwitchAck, to exercise the
// switching protocol's 30 ms retransmission path.
func DropTypes(p float64, rnd *rand.Rand, types ...packet.MsgType) func(packet.IPv4Addr, packet.Message) bool {
	set := make(map[packet.MsgType]bool, len(types))
	for _, t := range types {
		set[t] = true
	}
	return func(_ packet.IPv4Addr, msg packet.Message) bool {
		return set[msg.Type()] && rnd.Float64() < p
	}
}
