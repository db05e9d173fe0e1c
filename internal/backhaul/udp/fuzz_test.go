package udp

import (
	"testing"

	"wgtt/internal/backhaul"
	"wgtt/internal/packet"
)

// FuzzDatagram throws arbitrary datagrams at the inbound path — the
// reader's parse, the Post, the switch's decode and delivery — on a node
// hosting two nodes, with the posts run on the test goroutine. It must
// never panic, and the counters must account for every input: either the
// datagram is one decode error and delivers nothing, or its one copy is
// received or counted unroutable.
func FuzzDatagram(f *testing.F) {
	from, ap0, ap1, ap9 := packet.ControllerIP, packet.APIP(0), packet.APIP(1), packet.APIP(9)
	msg := packet.Encode(downMsg(7))
	f.Add(datagram(from, ap0, msg))               // hosted target
	f.Add(datagram(from, ap9, msg))               // unhosted target
	f.Add(datagram(from, ap1)[:6])                // truncated target
	f.Add(datagram(from, ap1, msg, []byte{0xab})) // trailing bytes
	f.Add(datagram(from, ap0, msg[:len(msg)-1]))  // truncated payload
	f.Add(datagram(from, ap1))                    // no payload
	// A message with a byte past its layout, the envelope's length grown to
	// cover it: one decode error, nothing delivered.
	long := append(append([]byte{}, msg...), 0)
	long[2]++
	f.Add(datagram(from, ap0, long))
	f.Fuzz(func(t *testing.T, b []byte) {
		w, sw, p := newNode(t, nil, nil)
		received := uint64(0)
		count := backhaul.NodeFunc(func(packet.IPv4Addr, packet.Message) { received++ })
		sw.Attach(ap0, count)
		sw.Attach(ap1, count)
		p.receive(b)
		drain(w)
		st := p.Stats()
		delivered := received + st.Unroutable
		if !(st.DecodeErrs == 1 && delivered == 0) && !(st.DecodeErrs == 0 && delivered == 1) {
			t.Fatalf("%d-byte datagram: %+v, %d received", len(b), st, received)
		}
	})
}
