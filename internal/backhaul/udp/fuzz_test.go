package udp

import (
	"testing"

	"wgtt/internal/backhaul"
	"wgtt/internal/packet"
	"wgtt/internal/runtime"
)

// FuzzDatagram throws arbitrary datagrams at the reader's parse path,
// receive → deliver, on a fabric hosting two nodes, with a Wall that never
// runs (posts only queue). It must never panic, and its counters must
// account for every input: either the datagram is one decode error and
// delivers nothing, or it lists at least one target and every target it
// lists is counted received or unroutable.
func FuzzDatagram(f *testing.F) {
	from, ap0, ap1, ap9 := packet.ControllerIP, packet.APIP(0), packet.APIP(1), packet.APIP(9)
	msg := packet.Encode(downMsg(7))
	tos := func(addrs ...packet.IPv4Addr) []packet.IPv4Addr { return addrs }
	f.Add(datagram(from, tos(ap0), msg))                   // one target
	f.Add(datagram(from, tos(ap0, ap1, ap9), msg))         // three targets, one unhosted
	f.Add(datagram(from, nil, msg))                        // zero count
	f.Add(datagram(from, tos(ap0, ap1, ap9))[:11])         // truncated target list
	f.Add(datagram(from, tos(ap1), msg, []byte{0xab}))     // trailing bytes
	f.Add(datagram(from, tos(ap0, ap1), msg[:len(msg)-1])) // truncated payload
	// A message with a byte past its layout, the envelope's length grown to
	// cover it: one decode error, nothing delivered.
	long := append(append([]byte{}, msg...), 0)
	long[2]++
	f.Add(datagram(from, tos(ap0), long))
	f.Fuzz(func(t *testing.T, b []byte) {
		fab, err := New(runtime.NewWall(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		nop := backhaul.NodeFunc(func(packet.IPv4Addr, packet.Message) {})
		fab.Attach(ap0, nop)
		fab.Attach(ap1, nop)
		fab.receive(b)
		listed := uint64(0)
		if len(b) > 4 {
			listed = uint64(b[4])
		}
		st := fab.Stats()
		delivered := st.Received + st.Unroutable
		if !(st.DecodeErrs == 1 && delivered == 0) && !(st.DecodeErrs == 0 && listed > 0 && delivered == listed) {
			t.Fatalf("%d-byte datagram listing %d targets: %+v", len(b), listed, st)
		}
	})
}
