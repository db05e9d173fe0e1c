// Package transport provides the traffic endpoints the evaluation drives
// through the network: a constant-bit-rate UDP sender/receiver pair (the
// paper's iperf3 tests) and a Reno-flavoured TCP with slow start, fast
// retransmit/recovery, and exponential RTO backoff — enough machinery to
// reproduce the paper's TCP phenomenology (throughput collapse and timeout
// at a failed baseline handover, §5.2.1).
package transport

import (
	"wgtt/internal/packet"
	"wgtt/internal/sim"
)

// SendFunc injects a packet into the network (controller downlink entry or
// client uplink queue).
type SendFunc func(p *packet.Packet)

// UDPSender emits fixed-size datagrams at a constant bit rate.
type UDPSender struct {
	eng       *sim.Engine
	send      SendFunc
	flowID    uint32
	bytes     int
	interval  sim.Time
	seq       uint32
	ipid      uint16
	srcIP     packet.IPv4Addr
	dstIP     packet.IPv4Addr
	clientMAC packet.MACAddr
	uplink    bool
	timer     sim.Timer
	running   bool

	Sent uint64
}

// UDPConfig configures a CBR flow.
type UDPConfig struct {
	FlowID    uint32
	RateMbps  float64
	Bytes     int // datagram size (default 1400)
	SrcIP     packet.IPv4Addr
	DstIP     packet.IPv4Addr
	ClientMAC packet.MACAddr
	Uplink    bool
}

// NewUDPSender creates a CBR sender; call Start to begin.
func NewUDPSender(eng *sim.Engine, cfg UDPConfig, send SendFunc) *UDPSender {
	if cfg.Bytes <= 0 {
		cfg.Bytes = 1400
	}
	interval := sim.Time(float64(cfg.Bytes*8) / cfg.RateMbps * float64(sim.Microsecond))
	return &UDPSender{
		eng:       eng,
		send:      send,
		flowID:    cfg.FlowID,
		bytes:     cfg.Bytes,
		interval:  interval,
		srcIP:     cfg.SrcIP,
		dstIP:     cfg.DstIP,
		clientMAC: cfg.ClientMAC,
		uplink:    cfg.Uplink,
	}
}

// Start begins emission.
func (u *UDPSender) Start() {
	if u.running {
		return
	}
	u.running = true
	u.tick()
}

// Stop halts emission.
func (u *UDPSender) Stop() {
	u.running = false
	u.timer.Stop()
}

// Cursor returns the sender's next sequence number and IP ID. Together with
// Resume it lets a flow continue across simulations: when a metro client
// migrates between cells, the destination cell's sender resumes exactly
// where the source cell's stopped, so the client sees one sequence space
// (the destination's receiver is told of the jump with UDPReceiver.Skip).
func (u *UDPSender) Cursor() (seq uint32, ipid uint16) { return u.seq, u.ipid }

// Resume positions the sender at the given sequence/IP-ID cursor. Call
// before Start on a stopped sender.
func (u *UDPSender) Resume(seq uint32, ipid uint16) {
	u.seq = seq
	u.ipid = ipid
}

func (u *UDPSender) tick() {
	p := &packet.Packet{
		FlowID:    u.flowID,
		Seq:       u.seq,
		IPID:      u.ipid,
		SrcIP:     u.srcIP,
		DstIP:     u.dstIP,
		ClientMAC: u.clientMAC,
		Bytes:     u.bytes,
		Uplink:    u.uplink,
		Created:   u.eng.Now(),
	}
	u.seq++
	u.ipid++
	u.Sent++
	u.send(p)
	u.timer = u.eng.After(u.interval, u.tick)
}

// UDPReceiver counts and time-stamps datagram arrivals for one flow.
type UDPReceiver struct {
	FlowID   uint32
	Received uint64
	Bytes    uint64
	// Arrivals holds (time, seq) pairs when recording is enabled.
	Arrivals []Arrival
	Record   bool

	maxSeq   uint32
	sawAny   bool
	Reorders uint64

	// skipped counts sequence numbers below maxSeq that the sender never
	// sent here; pending and pendingTo hold a jump no arrival has passed yet.
	skipped, pending uint64
	pendingTo        uint32
}

// Arrival is one recorded datagram arrival.
type Arrival struct {
	At  sim.Time
	Seq uint32
}

// OnPacket consumes one delivered datagram.
func (r *UDPReceiver) OnPacket(p *packet.Packet, at sim.Time) {
	if p.FlowID != r.FlowID {
		return
	}
	r.Received++
	r.Bytes += uint64(p.Bytes)
	if r.Record {
		r.Arrivals = append(r.Arrivals, Arrival{At: at, Seq: p.Seq})
	}
	if r.sawAny && p.Seq < r.maxSeq {
		r.Reorders++
	}
	if p.Seq > r.maxSeq || !r.sawAny {
		r.maxSeq = p.Seq
	}
	r.sawAny = true
	if r.pending > 0 && p.Seq >= r.pendingTo {
		r.skipped += r.pending
		r.pending = 0
	}
}

// Skip tells the receiver that its sender's cursor jumped from → to
// (UDPSender.Resume): another simulation's flow carried the datagrams in
// between, so they are not this receiver's to lose.
func (r *UDPReceiver) Skip(from, to uint32) {
	if to > from {
		r.pending += uint64(to - from)
		r.pendingTo = to
	}
}

// LossRate estimates the flow loss fraction from the highest sequence seen,
// net of the ranges Skip was told about.
func (r *UDPReceiver) LossRate() float64 {
	if !r.sawAny || r.maxSeq == 0 {
		return 0
	}
	expect := uint64(r.maxSeq) + 1 - r.skipped
	if r.Received >= expect {
		return 0
	}
	return float64(expect-r.Received) / float64(expect)
}
