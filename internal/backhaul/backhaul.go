// Package backhaul models the switched Ethernet LAN that interconnects the
// WGTT APs and the controller (§4). Only two of its properties matter to the
// protocols built on top: sub-millisecond unicast latency, and the fact that
// control messages can occasionally be lost (the paper's switching protocol
// carries a 30 ms retransmission timeout for exactly that case), which the
// Drop hook lets tests inject.
package backhaul

import (
	"fmt"
	"math/rand/v2"

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

// Fabric is the transport abstraction the protocol cores send through: the
// in-memory Switch below (simulation — typed messages, virtual latency) and
// the real-socket fabric in backhaul/udp (live mode — every message passes
// its wire encoding) both implement it, which is what lets one controller
// and AP implementation run on either substrate (DESIGN.md §12).
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

// Switch is the Ethernet fabric. It is store-and-forward with a fixed
// one-way latency; bandwidth is assumed ample (the paper's gigabit LAN
// never saturates at roadside AP loads). Every message runs through its
// wire encoding and the decoded copy is what gets delivered, so the binary
// formats are exercised on every simulated send.
type Switch struct {
	eng     *sim.Engine
	latency sim.Time
	nodes   map[packet.IPv4Addr]Node

	// Drop, if non-nil, is consulted per message; returning true discards
	// it (control-loss failure injection). Compose multiple hooks with
	// Chain.
	Drop func(to packet.IPv4Addr, msg packet.Message) bool

	// Delay, if non-nil, returns extra one-way latency added to this
	// message on top of the base switch latency (backhaul congestion /
	// latency-spike injection, DESIGN.md §11). Non-positive returns add
	// nothing.
	Delay func(to packet.IPv4Addr, msg packet.Message) sim.Time

	sent    uint64
	dropped uint64
	bytes   uint64

	// encScratch is the reusable encode buffer and unicast the reusable
	// one-target list of a Send; the switch runs on the single simulation
	// goroutine, so one of each serves every send.
	encScratch []byte
	unicast    [1]packet.IPv4Addr
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
}

// Send delivers msg to the node at to after the switch latency. Sending to
// an unattached address returns an error — it is always an assembly bug.
func (s *Switch) Send(from, to packet.IPv4Addr, msg packet.Message) error {
	if _, ok := s.nodes[to]; !ok {
		return fmt.Errorf("backhaul: no node at %v", to)
	}
	s.unicast[0] = to
	return s.send(from, s.unicast[:], msg)
}

// SendMany implements Fabric: Send to every attached target, in slice
// order, off one encoding of msg. A message the codec rejects reaches
// nobody, as the Send loop whose errors a fan-out ignores would have it.
func (s *Switch) SendMany(from packet.IPv4Addr, tos []packet.IPv4Addr, msg packet.Message) {
	_ = s.send(from, tos, msg)
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

// getDelivery takes a delivery off the free list and decodes the wire bytes
// in encScratch into it: every delivery carries a decoded copy of its own.
// The delivery comes back with the decode error too, for the caller to
// recycle.
func (s *Switch) getDelivery(from packet.IPv4Addr) (*delivery, error) {
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
	d.msg, err = packet.DecodeInto(s.encScratch, &d.scratch)
	return d, err
}

// send is the one delivery path: encode msg once into the scratch buffer,
// decode it into a delivery, and hand that copy to every attached target —
// which is what lets callers reuse msg immediately (the non-retention
// contract). Unattached targets are skipped; bytes and sent count per
// delivered copy. The Drop and Delay hooks are consulted once per (target,
// message) in target order, so a fault-injected run's RNG draw sequence does
// not depend on how the caller grouped its sends. Undelayed copies share one
// delivery; a delayed copy gets its own — decoded from the same bytes, since
// the shared one is recycled before the late one fires — in target order.
func (s *Switch) send(from packet.IPv4Addr, tos []packet.IPv4Addr, msg packet.Message) error {
	s.encScratch = packet.EncodeInto(s.encScratch[:0], msg)
	d, err := s.getDelivery(from)
	if err != nil {
		// The codec tests make this unreachable for every real message type.
		d.recycle()
		return fmt.Errorf("backhaul: wire round-trip of %v failed: %w", msg.Type(), err)
	}
	size := uint64(len(s.encScratch))
	hooked := s.Drop != nil || s.Delay != nil
	for _, to := range tos {
		node, ok := s.nodes[to]
		if !ok || hooked && s.faulted(d, to, node, msg, size) {
			continue
		}
		s.bytes += size
		s.sent++
		d.nodes = append(d.nodes, node)
	}
	if len(d.nodes) == 0 {
		d.recycle()
		return nil
	}
	s.eng.After(s.latency, d.run)
	return nil
}

// faulted consults the Drop and Delay hooks for one copy of d's message and
// reports whether the copy stays out of d: dropped, or delayed — delivered by
// an event of its own.
func (s *Switch) faulted(d *delivery, to packet.IPv4Addr, node Node, msg packet.Message, size uint64) bool {
	if s.Drop != nil && s.Drop(to, msg) {
		s.dropped++
		return true
	}
	if s.Delay == nil {
		return false
	}
	extra := s.Delay(to, msg)
	if extra <= 0 {
		return false
	}
	s.bytes += size
	s.sent++
	late, _ := s.getDelivery(d.from) // send has decoded these same bytes into d
	late.nodes = append(late.nodes, node)
	s.eng.After(s.latency+extra, late.run)
	return true
}

// Stats reports the number of delivered and dropped messages and the total
// encoded bytes of everything sent.
func (s *Switch) Stats() (sent, dropped, bytes uint64) { return s.sent, s.dropped, s.bytes }

// Chain composes drop hooks: a message is dropped if any hook drops it.
// Nil hooks are skipped, so Chain(sw.Drop, extra) composes with whatever is
// (or isn't) already installed — fault injection no longer clobbers a hook
// a scenario or test installed first. Hooks run in argument order and
// evaluation stops at the first hook that drops, so any RNG draws made by
// later hooks happen only for messages the earlier hooks let through;
// given a fixed message sequence the composition is still deterministic.
func Chain(hooks ...func(packet.IPv4Addr, packet.Message) bool) func(packet.IPv4Addr, packet.Message) bool {
	var active []func(packet.IPv4Addr, packet.Message) bool
	for _, h := range hooks {
		if h != nil {
			active = append(active, h)
		}
	}
	switch len(active) {
	case 0:
		return nil
	case 1:
		return active[0]
	}
	return func(to packet.IPv4Addr, msg packet.Message) bool {
		for _, h := range active {
			if h(to, msg) {
				return true
			}
		}
		return false
	}
}

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
