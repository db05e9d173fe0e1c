package transport

import (
	"wgtt/internal/packet"
	"wgtt/internal/sim"
)

// TCP timing constants (Linux-flavoured).
const (
	// MinRTO is the minimum retransmission timeout.
	MinRTO = 200 * sim.Millisecond
	// MaxRTO caps exponential backoff.
	MaxRTO = 60 * sim.Second
	// InitialRTO before any RTT sample.
	InitialRTO = 1 * sim.Second
	// DefaultMSS is the segment payload size.
	DefaultMSS = 1400
	// AckBytes is the wire size of a pure ACK.
	AckBytes = 40
	// RcvWindow is the receiver window in segments.
	RcvWindow = 256
)

// TCPConfig configures one TCP flow (sender side).
type TCPConfig struct {
	FlowID    uint32
	SrcIP     packet.IPv4Addr
	DstIP     packet.IPv4Addr
	ClientMAC packet.MACAddr
	// TotalSegments bounds the transfer (0 = unbounded bulk flow).
	TotalSegments uint32
	// OnComplete fires when a bounded transfer is fully acknowledged.
	OnComplete func(at sim.Time)
}

// TCPSender is a Reno-style sender operating in MSS-sized segment units.
// Sequence numbers count segments, not bytes; the wire packets carry
// MSS-byte payloads so airtime accounting is faithful.
type TCPSender struct {
	eng  *sim.Engine
	cfg  TCPConfig
	send SendFunc

	cwnd     float64 // congestion window, segments
	ssthresh float64
	sndUna   uint32 // oldest unacknowledged segment
	sndNxt   uint32 // next segment to send
	dupAcks  int

	srtt, rttvar sim.Time
	haveRTT      bool
	rto          sim.Time
	rtoTimer     sim.Timer
	backoff      int

	sentAt   map[uint32]sim.Time // send time per segment (cleared on rtx)
	ipid     uint16
	started  bool
	complete bool
	inFR     bool   // fast recovery
	recover  uint32 // NewReno recovery point (sndNxt at FR entry)

	// Stats.
	Sent        uint64
	Retransmits uint64
	Timeouts    uint64
	AckedSegs   uint32
	// CwndTrace records (time, cwnd) when enabled.
	TraceCwnd bool
	CwndTrace []CwndSample
}

// CwndSample is one recorded congestion-window value.
type CwndSample struct {
	At   sim.Time
	Cwnd float64
}

// NewTCPSender creates a sender; Start launches the flow.
func NewTCPSender(eng *sim.Engine, cfg TCPConfig, send SendFunc) *TCPSender {
	return &TCPSender{
		eng:      eng,
		cfg:      cfg,
		send:     send,
		cwnd:     10, // RFC 6928 initial window
		ssthresh: 64,
		rto:      InitialRTO,
		sentAt:   make(map[uint32]sim.Time),
	}
}

// Start begins transmission.
func (s *TCPSender) Start() {
	if s.started {
		return
	}
	s.started = true
	s.pump()
}

// pump sends while the window allows.
func (s *TCPSender) pump() {
	if s.complete {
		return
	}
	limit := s.sndUna + uint32(s.cwnd)
	if w := s.sndUna + RcvWindow; w < limit {
		limit = w
	}
	if s.cfg.TotalSegments > 0 && limit > s.cfg.TotalSegments {
		limit = s.cfg.TotalSegments
	}
	for s.sndNxt < limit {
		s.emit(s.sndNxt, false)
		s.sndNxt++
	}
	s.armRTO()
}

func (s *TCPSender) emit(seq uint32, rtx bool) {
	p := &packet.Packet{
		FlowID:    s.cfg.FlowID,
		Seq:       seq,
		IPID:      s.ipid,
		SrcIP:     s.cfg.SrcIP,
		DstIP:     s.cfg.DstIP,
		ClientMAC: s.cfg.ClientMAC,
		Bytes:     DefaultMSS,
		Created:   s.eng.Now(),
		Kind:      packet.KindData,
	}
	s.ipid++
	s.Sent++
	if rtx {
		s.Retransmits++
		delete(s.sentAt, seq) // Karn: no RTT sample from retransmission
	} else {
		s.sentAt[seq] = s.eng.Now()
	}
	s.send(p)
}

func (s *TCPSender) armRTO() {
	s.rtoTimer.Stop()
	if s.sndUna == s.sndNxt {
		return // nothing outstanding
	}
	s.rtoTimer = s.eng.After(s.rto, s.onRTO)
}

// onRTO is the retransmission timeout: Reno collapses to one segment.
func (s *TCPSender) onRTO() {
	if s.sndUna == s.sndNxt || s.complete {
		return
	}
	s.Timeouts++
	s.ssthresh = maxf(s.cwnd/2, 2)
	s.cwnd = 1
	s.dupAcks = 0
	s.inFR = false
	s.backoff++
	s.rto = minT(s.rto*2, MaxRTO)
	s.traceCwnd()
	s.emit(s.sndUna, true)
	// Go-back-N: everything past sndUna is treated as lost and will be
	// resent by pump as the window reopens (receiver-side reassembly
	// discards any duplicates that did survive).
	s.sndNxt = s.sndUna + 1
	s.armRTO()
}

// OnAck processes a cumulative acknowledgement for "next expected segment"
// ackSeq.
func (s *TCPSender) OnAck(ackSeq uint32, at sim.Time) {
	if s.complete {
		return
	}
	switch {
	case ackSeq > s.sndUna:
		// New data acknowledged.
		if t, ok := s.sentAt[ackSeq-1]; ok {
			s.sampleRTT(at - t)
		}
		for seq := s.sndUna; seq < ackSeq; seq++ {
			delete(s.sentAt, seq)
		}
		newly := ackSeq - s.sndUna
		s.sndUna = ackSeq
		s.AckedSegs = ackSeq
		s.dupAcks = 0
		s.backoff = 0
		if s.inFR {
			if ackSeq < s.recover {
				// NewReno partial ack: the next hole is lost too —
				// retransmit it immediately and stay in recovery.
				s.emit(ackSeq, true)
				s.armRTO()
				return
			}
			// Full ack: exit fast recovery.
			s.cwnd = s.ssthresh
			s.inFR = false
		} else if s.cwnd < s.ssthresh {
			s.cwnd += float64(newly) // slow start
		} else {
			s.cwnd += float64(newly) / s.cwnd // congestion avoidance
		}
		s.traceCwnd()
		if s.cfg.TotalSegments > 0 && s.sndUna >= s.cfg.TotalSegments {
			s.complete = true
			s.rtoTimer.Stop()
			if s.cfg.OnComplete != nil {
				s.cfg.OnComplete(at)
			}
			return
		}
		s.pump()
	case ackSeq == s.sndUna && s.sndNxt > s.sndUna:
		s.dupAcks++
		if s.dupAcks == 3 && !s.inFR {
			// Fast retransmit + fast recovery.
			s.ssthresh = maxf(s.cwnd/2, 2)
			s.cwnd = s.ssthresh
			s.inFR = true
			s.recover = s.sndNxt
			s.traceCwnd()
			s.emit(s.sndUna, true)
			s.armRTO()
		}
	}
}

func (s *TCPSender) sampleRTT(rtt sim.Time) {
	if rtt <= 0 {
		return
	}
	if !s.haveRTT {
		s.srtt = rtt
		s.rttvar = rtt / 2
		s.haveRTT = true
	} else {
		diff := s.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + rtt) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < MinRTO {
		s.rto = MinRTO
	}
}

func (s *TCPSender) traceCwnd() {
	if s.TraceCwnd {
		s.CwndTrace = append(s.CwndTrace, CwndSample{At: s.eng.Now(), Cwnd: s.cwnd})
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minT(a, b sim.Time) sim.Time {
	if a < b {
		return a
	}
	return b
}

// TCPReceiver reassembles the segment stream and emits cumulative ACKs back
// toward the sender.
type TCPReceiver struct {
	FlowID uint32
	// SendAck injects an ACK packet into the reverse path.
	SendAck SendFunc
	// AckTemplate provides addressing for generated ACKs.
	AckTemplate packet.Packet

	rcvNxt uint32
	ooo    map[uint32]bool
	ipid   uint16

	// Delivered counts in-order segments handed to the application.
	Delivered uint64
	// DeliveredBytes counts in-order payload bytes.
	DeliveredBytes uint64
	// OnDeliver observes each in-order segment (for app-layer models).
	OnDeliver func(seq uint32, bytes int, at sim.Time)
	// Progress records the in-order delivery frontier over time when
	// Record is set (rebuffer/page-load analysis).
	Record   bool
	Progress []ProgressSample
}

// ProgressSample is one (time, contiguous segments) point.
type ProgressSample struct {
	At   sim.Time
	Segs uint32
}

// OnPacket consumes one delivered data segment.
func (r *TCPReceiver) OnPacket(p *packet.Packet, at sim.Time) {
	if p.FlowID != r.FlowID || p.Kind != packet.KindData {
		return
	}
	if r.ooo == nil {
		r.ooo = make(map[uint32]bool)
	}
	if p.Seq >= r.rcvNxt && !r.ooo[p.Seq] {
		r.ooo[p.Seq] = true
	}
	// Advance the in-order frontier.
	advanced := false
	for r.ooo[r.rcvNxt] {
		delete(r.ooo, r.rcvNxt)
		r.Delivered++
		r.DeliveredBytes += uint64(p.Bytes)
		if r.OnDeliver != nil {
			r.OnDeliver(r.rcvNxt, p.Bytes, at)
		}
		r.rcvNxt++
		advanced = true
	}
	if advanced && r.Record {
		r.Progress = append(r.Progress, ProgressSample{At: at, Segs: r.rcvNxt})
	}
	r.ack(at)
}

// ack emits a cumulative acknowledgement.
func (r *TCPReceiver) ack(at sim.Time) {
	if r.SendAck == nil {
		return
	}
	p := r.AckTemplate // copy
	p.FlowID = r.FlowID
	p.Seq = r.rcvNxt
	p.IPID = r.ipid
	p.Bytes = AckBytes
	p.Kind = packet.KindAck
	p.Created = at
	r.ipid++
	r.SendAck(&p)
}
