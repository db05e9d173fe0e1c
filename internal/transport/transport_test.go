package transport

import (
	"testing"

	"wgtt/internal/packet"
	"wgtt/internal/sim"
)

// pipe is a bidirectional delay/loss channel for transport tests.
type pipe struct {
	eng     *sim.Engine
	oneWay  sim.Time
	dropFwd func(seq uint32) bool // data direction
	dropRev func(seq uint32) bool // ack direction
	rx      *TCPReceiver
	tx      *TCPSender
}

func newPipe(eng *sim.Engine, oneWay sim.Time) *pipe { return &pipe{eng: eng, oneWay: oneWay} }

func (pp *pipe) wire(tx *TCPSender, rx *TCPReceiver) {
	pp.tx, pp.rx = tx, rx
}

func (pp *pipe) sendData(p *packet.Packet) {
	if pp.dropFwd != nil && pp.dropFwd(p.Seq) {
		return
	}
	cp := *p
	pp.eng.After(pp.oneWay, func() { pp.rx.OnPacket(&cp, pp.eng.Now()) })
}

func (pp *pipe) sendAck(p *packet.Packet) {
	if pp.dropRev != nil && pp.dropRev(p.Seq) {
		return
	}
	seq := p.Seq
	pp.eng.After(pp.oneWay, func() { pp.tx.OnAck(seq, pp.eng.Now()) })
}

func tcpPair(eng *sim.Engine, total uint32, oneWay sim.Time) (*TCPSender, *TCPReceiver, *pipe) {
	pp := newPipe(eng, oneWay)
	tx := NewTCPSender(eng, TCPConfig{FlowID: 1, TotalSegments: total}, pp.sendData)
	rx := &TCPReceiver{FlowID: 1, SendAck: pp.sendAck}
	pp.wire(tx, rx)
	return tx, rx, pp
}

func TestTCPLosslessTransfer(t *testing.T) {
	eng := sim.NewEngine()
	done := sim.Time(0)
	tx, rx, _ := tcpPair(eng, 500, 5*sim.Millisecond)
	tx.cfg.OnComplete = func(at sim.Time) { done = at }
	tx.Start()
	eng.RunUntil(30 * sim.Second)
	if !tx.complete {
		t.Fatalf("transfer incomplete: acked %d/500", tx.sndUna)
	}
	if rx.Delivered != 500 {
		t.Errorf("receiver delivered %d", rx.Delivered)
	}
	if tx.Retransmits != 0 {
		t.Errorf("retransmissions on a lossless pipe: %d", tx.Retransmits)
	}
	if done == 0 {
		t.Error("OnComplete not invoked")
	}
	// Slow start should make this fast: 500 segments, RTT 10 ms, initial
	// window 10 ⇒ ~6 round trips ≈ 60–100 ms.
	if done > 300*sim.Millisecond {
		t.Errorf("transfer took %v", done)
	}
}

func TestTCPFastRetransmit(t *testing.T) {
	eng := sim.NewEngine()
	tx, rx, pp := tcpPair(eng, 200, 5*sim.Millisecond)
	dropped := false
	pp.dropFwd = func(seq uint32) bool {
		if seq == 50 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	tx.Start()
	eng.RunUntil(30 * sim.Second)
	if !tx.complete {
		t.Fatalf("transfer incomplete: acked %d/200", tx.sndUna)
	}
	if rx.Delivered != 200 {
		t.Errorf("delivered %d", rx.Delivered)
	}
	if tx.Retransmits == 0 {
		t.Error("no retransmission recorded")
	}
	if tx.Timeouts != 0 {
		t.Errorf("single loss should be repaired by fast retransmit, got %d timeouts", tx.Timeouts)
	}
}

func TestTCPTimeoutOnBlackout(t *testing.T) {
	eng := sim.NewEngine()
	tx, _, pp := tcpPair(eng, 0, 5*sim.Millisecond) // bulk flow
	blackout := false
	pp.dropFwd = func(uint32) bool { return blackout }
	tx.TraceCwnd = true
	tx.Start()
	eng.RunUntil(sim.Second)
	ackedBefore := tx.sndUna
	if ackedBefore == 0 {
		t.Fatal("flow never started")
	}
	// Total blackout for 5 s: RTO fires and backs off; cwnd pinned at 1.
	blackout = true
	eng.RunUntil(6 * sim.Second)
	if tx.Timeouts < 2 {
		t.Errorf("timeouts = %d during blackout", tx.Timeouts)
	}
	if tx.cwnd != 1 {
		t.Errorf("cwnd = %v during blackout, want 1", tx.cwnd)
	}
	// Heal the path: the flow recovers (the WGTT case; the baseline in
	// Fig. 14 never heals within the drive).
	blackout = false
	eng.RunUntil(16 * sim.Second)
	if tx.sndUna <= ackedBefore {
		t.Error("flow did not recover after blackout ended")
	}
}

func TestTCPRTOBackoffGrowth(t *testing.T) {
	eng := sim.NewEngine()
	tx, _, pp := tcpPair(eng, 0, 5*sim.Millisecond)
	pp.dropFwd = func(uint32) bool { return true } // never deliver
	tx.Start()
	eng.RunUntil(20 * sim.Second)
	// 1s, 2s, 4s, 8s… ⇒ about 4–5 timeouts in 20 s.
	if tx.Timeouts < 3 || tx.Timeouts > 7 {
		t.Errorf("timeouts = %d in 20 s of blackout", tx.Timeouts)
	}
}

func TestTCPReceiverReordering(t *testing.T) {
	eng := sim.NewEngine()
	var acks []uint32
	rx := &TCPReceiver{FlowID: 1, SendAck: func(p *packet.Packet) { acks = append(acks, p.Seq) }}
	mk := func(seq uint32) *packet.Packet {
		return &packet.Packet{FlowID: 1, Seq: seq, Bytes: DefaultMSS, Kind: packet.KindData}
	}
	rx.OnPacket(mk(0), eng.Now())
	rx.OnPacket(mk(2), eng.Now()) // gap at 1
	rx.OnPacket(mk(3), eng.Now())
	if rx.rcvNxt != 1 {
		t.Fatalf("frontier = %d, want 1", rx.rcvNxt)
	}
	// Duplicate ACKs for the gap.
	if acks[1] != 1 || acks[2] != 1 {
		t.Errorf("acks = %v, want dup acks at 1", acks)
	}
	rx.OnPacket(mk(1), eng.Now())
	if rx.rcvNxt != 4 {
		t.Errorf("frontier after fill = %d, want 4", rx.rcvNxt)
	}
	if rx.Delivered != 4 {
		t.Errorf("delivered = %d", rx.Delivered)
	}
	// Duplicate data does not double-deliver.
	rx.OnPacket(mk(2), eng.Now())
	if rx.Delivered != 4 {
		t.Error("duplicate segment delivered twice")
	}
}

func TestTCPRTTEstimator(t *testing.T) {
	eng := sim.NewEngine()
	tx, _, _ := tcpPair(eng, 100, 20*sim.Millisecond)
	tx.Start()
	eng.RunUntil(10 * sim.Second)
	if !tx.haveRTT {
		t.Fatal("no RTT samples")
	}
	// RTT is 40 ms; srtt should be in that ballpark.
	if tx.srtt < 30*sim.Millisecond || tx.srtt > 80*sim.Millisecond {
		t.Errorf("srtt = %v, want ≈ 40 ms", tx.srtt)
	}
	if tx.rto != MinRTO {
		t.Errorf("rto = %v, want clamped to MinRTO", tx.rto)
	}
}

func TestUDPSenderRate(t *testing.T) {
	eng := sim.NewEngine()
	var got []*packet.Packet
	u := NewUDPSender(eng, UDPConfig{FlowID: 2, RateMbps: 11.2, Bytes: 1400},
		func(p *packet.Packet) { got = append(got, p) })
	u.Start()
	eng.RunUntil(sim.Second)
	u.Stop()
	// 11.2 Mb/s at 11200 bits/pkt = 1000 pkt/s.
	if len(got) < 990 || len(got) > 1010 {
		t.Errorf("sent %d packets in 1 s, want ≈ 1000", len(got))
	}
	// Sequences and IPIDs increment.
	if got[5].Seq != 5 || got[5].IPID != 5 {
		t.Error("sequence numbering wrong")
	}
	eng.RunUntil(2 * sim.Second)
	if u.Sent != uint64(len(got)) {
		t.Error("Stop did not halt emission")
	}
}

func TestUDPReceiverLoss(t *testing.T) {
	r := &UDPReceiver{FlowID: 2, Record: true}
	for _, seq := range []uint32{0, 1, 3, 4, 2, 9} {
		r.OnPacket(&packet.Packet{FlowID: 2, Seq: seq, Bytes: 1400}, sim.Time(seq)*sim.Millisecond)
	}
	if r.Received != 6 {
		t.Errorf("received = %d", r.Received)
	}
	// Highest seq 9 ⇒ 10 expected, 6 seen ⇒ 40% loss.
	if lr := r.LossRate(); lr < 0.39 || lr > 0.41 {
		t.Errorf("loss rate = %v", lr)
	}
	if r.Reorders != 1 {
		t.Errorf("reorders = %d", r.Reorders)
	}
	if len(r.Arrivals) != 6 {
		t.Error("arrivals not recorded")
	}
	// Foreign flows ignored.
	r.OnPacket(&packet.Packet{FlowID: 7, Seq: 100}, 0)
	if r.Received != 6 {
		t.Error("foreign flow counted")
	}
}

// TestUDPReceiverSkip: a sender that resumes at another flow's cursor tells
// the receiver, and the skipped range is not counted as loss — but only once
// an arrival shows the flow got past it.
func TestUDPReceiverSkip(t *testing.T) {
	r := &UDPReceiver{FlowID: 2}
	recv := func(seqs ...uint32) {
		for _, seq := range seqs {
			r.OnPacket(&packet.Packet{FlowID: 2, Seq: seq, Bytes: 1400}, 0)
		}
	}
	r.Skip(0, 100) // first visit starts at cursor 100
	recv(100, 101, 103)
	if lr, want := r.LossRate(), 1.0/4; lr != want {
		t.Errorf("loss after resuming at 100 = %v, want %v", lr, want)
	}
	r.Skip(104, 500) // left and came back; nothing heard yet
	if lr, want := r.LossRate(), 1.0/4; lr != want {
		t.Errorf("loss with an unpassed skip = %v, want %v", lr, want)
	}
	recv(501)
	// Own datagrams: 100–103 and 500–501; 102 and 500 were lost.
	if lr, want := r.LossRate(), 2.0/6; lr != want {
		t.Errorf("loss after the second visit = %v, want %v", lr, want)
	}
}

func TestTCPProgressRecording(t *testing.T) {
	eng := sim.NewEngine()
	tx, rx, _ := tcpPair(eng, 50, sim.Millisecond)
	rx.Record = true
	tx.Start()
	eng.RunUntil(5 * sim.Second)
	if len(rx.Progress) == 0 {
		t.Fatal("no progress samples")
	}
	last := rx.Progress[len(rx.Progress)-1]
	if last.Segs != 50 {
		t.Errorf("final frontier = %d", last.Segs)
	}
	// Monotone non-decreasing.
	for i := 1; i < len(rx.Progress); i++ {
		if rx.Progress[i].Segs < rx.Progress[i-1].Segs ||
			rx.Progress[i].At < rx.Progress[i-1].At {
			t.Fatal("progress not monotone")
		}
	}
}
