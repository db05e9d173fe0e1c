package udp

import (
	"bytes"
	"testing"

	"wgtt/internal/backhaul"
	"wgtt/internal/packet"
	"wgtt/internal/runtime"
)

// FuzzDatagram throws arbitrary datagrams at the reader's parse path —
// handleBatch for the batch address, dispatch otherwise — on a fabric
// hosting two nodes, with a Wall that never runs (posts only queue). It
// must never panic, and its counters must account for every input: either
// the datagram is one decode error and delivers nothing, or every target
// it lists is counted received or unroutable.
func FuzzDatagram(f *testing.F) {
	from, ap0, ap1, ap9 := packet.ControllerIP, packet.APIP(0), packet.APIP(1), packet.APIP(9)
	msg := packet.Encode(downMsg(7))
	dg := func(to packet.IPv4Addr, parts ...[]byte) []byte {
		b := append(append([]byte{}, from[:]...), to[:]...)
		return append(b, bytes.Join(parts, nil)...)
	}
	f.Add(dg(ap0, msg))                                          // good unicast
	f.Add(dg(batchAddr, []byte{3}, ap0[:], ap1[:], ap9[:], msg)) // good batch, one target unhosted
	f.Add(dg(batchAddr, []byte{0}, msg))                         // zero count
	f.Add(dg(batchAddr, []byte{3}, ap0[:], ap1[:2]))             // truncated target list
	f.Add(dg(ap1, msg, []byte{0xab}))                            // trailing bytes
	f.Add(dg(batchAddr, []byte{1}, ap1[:], msg, []byte{0xab}))   // trailing bytes in a batch
	f.Fuzz(func(t *testing.T, b []byte) {
		fab, err := New(runtime.NewWall(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		nop := backhaul.NodeFunc(func(packet.IPv4Addr, packet.Message) {})
		fab.Attach(ap0, nop)
		fab.Attach(ap1, nop)
		fab.receive(b)
		listed := uint64(1)
		if len(b) > header && bytes.Equal(b[4:header], batchAddr[:]) {
			listed = uint64(b[header])
		}
		st := fab.Stats()
		delivered := st.Received + st.Unroutable
		if !(st.DecodeErrs == 1 && delivered == 0) && !(st.DecodeErrs == 0 && delivered == listed) {
			t.Fatalf("%d-byte datagram listing %d targets: %+v", len(b), listed, st)
		}
	})
}
