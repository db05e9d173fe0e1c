package federation_test

import (
	"testing"

	"wgtt/internal/backhaul"
	"wgtt/internal/packet"
	"wgtt/internal/sim"
)

// FuzzHandoffReorder is the handoff machine under reordered and duplicated
// messages (ROADMAP 1c; TestHandoffMachineUnderLoss covers dropped ones).
// The fuzz bytes, read in a cycle, give every backhaul message an extra
// Switch.Delay of 0–31 ms, so messages overtake one another and the 30 ms
// timeouts race their answers; and every node re-hears, when the next byte
// says so, a copy of each offer, accept, commit, stop, start and ack it
// receives, up to 31.5 ms later. The properties are checkHandoffMachine's:
// never two owners, and once the hooks are lifted exactly one owner and no
// switch in flight, both ways across the boundary.
func FuzzHandoffReorder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add([]byte{29, 0, 31, 1})
	f.Add([]byte{3, 64, 17, 255, 0, 30, 9, 128, 44})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := newFedHarness(t, 2, 2, quickConfig())
		i := 0
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			i++
			return data[(i-1)%len(data)]
		}
		hooked := true
		h.bh.Delay = func(packet.IPv4Addr, packet.Message) sim.Time {
			return sim.Time(next()%32) * sim.Millisecond
		}
		redeliver := func() (sim.Time, bool) {
			b := next()
			return sim.Time(b>>1) * 250 * sim.Microsecond, hooked && b&1 == 1
		}
		for g, ap := range h.aps {
			h.bh.Attach(packet.APIP(g), &dupNode{eng: h.eng, inner: ap, redeliver: redeliver})
		}
		for d, dom := range h.doms {
			h.bh.Attach(packet.DomainControllerIP(d), &dupNode{eng: h.eng, inner: dom, redeliver: redeliver})
		}
		h.checkHandoffMachine("reorder", func() { h.bh.Delay, hooked = nil, false })
	})
}

// dupNode hands every message to inner and, when redeliver says so, hands
// inner a decoded copy of a handoff or switching message a second time
// after the returned delay — a duplicate the backhaul never counted.
type dupNode struct {
	eng       *sim.Engine
	inner     backhaul.Node
	redeliver func() (sim.Time, bool)
}

func (n *dupNode) HandleBackhaul(from packet.IPv4Addr, msg packet.Message) {
	switch msg.Type() {
	case packet.MsgDomainHandoffOffer, packet.MsgDomainHandoffAccept, packet.MsgDomainHandoffCommit,
		packet.MsgStop, packet.MsgStart, packet.MsgSwitchAck:
		if after, ok := n.redeliver(); ok {
			cp, err := packet.Decode(packet.Encode(msg))
			if err != nil {
				panic(err)
			}
			n.eng.After(after, func() { n.inner.HandleBackhaul(from, cp) })
		}
	}
	n.inner.HandleBackhaul(from, msg)
}
