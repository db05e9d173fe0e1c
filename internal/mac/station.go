package mac

import (
	"wgtt/internal/packet"
	"wgtt/internal/phy"
	"wgtt/internal/radio"
)

// Sink receives what a station hears: frames addressed to it (or overheard
// in monitor mode). APs and clients implement it. An event is valid only
// during the call: when the sink returns, the medium zeroes it and reuses it
// for a later arrival, so a sink copies what it keeps — the MPDUs in Decoded
// are its to keep, the slice and SNRdB are not.
type Sink interface {
	// OnFrame is invoked for every frame the station decodes ≥1 MPDU of,
	// and for owned-address frames it decoded nothing of (ev.Decoded empty)
	// so receivers can observe PHY activity.
	OnFrame(ev *RxEvent)
	// Overhears reports whether the sink does anything with a monitor-mode
	// capture (Overheard=true) of a frame or response sent by from. The
	// medium asks before it samples one and never delivers a capture the
	// sink declines; owned and broadcast frames and the response to the
	// station's own frame are always delivered.
	Overhears(from packet.MACAddr) bool
}

// BASink is the part of a Sink that (Block) ACK responses reach, under the
// same lending rule; a sink without it (a client's) hears none.
type BASink interface {
	// OnBlockAck is invoked for every ACK/Block ACK the station decodes,
	// both its own (Overheard=false) and the monitor-mode captures Overhears
	// accepts.
	OnBlockAck(ev *BAEvent)
}

// Source supplies outgoing aggregates for a station. The pull model matters:
// the frame is built at the instant the medium is won, so packets flushed
// from queues while contending (a WGTT stop) never reach the air.
type Source interface {
	// BuildFrame assembles the next frame, or returns nil if there is
	// nothing to send (the attempt is abandoned without airtime).
	BuildFrame() *Frame
	// OnTxDone reports the attempt outcome; res is nil when BuildFrame
	// returned nil.
	OnTxDone(res *TxResult)
}

// StationConfig configures a new station.
type StationConfig struct {
	Addr     packet.MACAddr
	Aliases  []packet.MACAddr // additional owned addresses (shared BSSID)
	Endpoint *radio.Endpoint  // radio identity
	// Promiscuous stations decode frames addressed to anyone (monitor mode).
	Promiscuous bool
}

// Station is one 802.11 MAC entity: it contends for the medium, assembles
// aggregates from its Source, tracks per-peer sequence numbers and rate
// state, and correlates Block ACK responses with in-flight frames.
type Station struct {
	Addr        packet.MACAddr
	Aliases     []packet.MACAddr
	Endpoint    *radio.Endpoint
	Promiscuous bool

	medium        *Medium
	sink          Sink
	baSink        BASink // sink, if it implements BASink
	src           Source
	respondFilter func(from packet.MACAddr) bool

	cw         int
	srcPending bool
	oneshots   []oneshot
	inFlight   bool

	awaiting *TxResult
	awaitSSN uint16

	seq map[packet.MACAddr]uint16
	rc  map[packet.MACAddr]*minstrel

	// Stats.
	FramesSent   uint64
	MPDUsSent    uint64
	BAMissed     uint64
	RespCollided uint64
}

type oneshot struct {
	build func() *Frame
	done  func(*TxResult)
}

// NewStation creates a station and registers it with the medium.
func NewStation(m *Medium, cfg StationConfig) *Station {
	if cfg.Endpoint == nil {
		panic("mac: station needs a radio endpoint")
	}
	s := &Station{
		Addr:        cfg.Addr,
		Aliases:     cfg.Aliases,
		Endpoint:    cfg.Endpoint,
		Promiscuous: cfg.Promiscuous,
		medium:      m,
		cw:          phy.CWMin,
		seq:         make(map[packet.MACAddr]uint16),
		rc:          make(map[packet.MACAddr]*minstrel),
	}
	m.register(s)
	return s
}

// SetSink installs the receive handler; the sink usually needs the station
// first, so it is installed after NewStation.
func (s *Station) SetSink(k Sink) {
	s.sink = k
	s.baSink, _ = k.(BASink)
}

// SetSource installs the transmit source.
func (s *Station) SetSource(src Source) { s.src = src }

// SetRespondFilter installs a predicate gating ACK generation per data
// sender; without one the station responds to everything addressed to an
// owned address.
func (s *Station) SetRespondFilter(f func(from packet.MACAddr) bool) { s.respondFilter = f }

// Retune moves the station onto a different medium — a wireless channel
// switch. Ungranted transmit attempts on the old channel are abandoned (the
// station re-requests on the new one); an in-flight exchange finishes and
// reports as usual.
func (s *Station) Retune(m *Medium) {
	if m == s.medium {
		return
	}
	old := s.medium
	// Point the station at the new channel first: the abandoned attempts'
	// completion callbacks may immediately re-request, and those requests
	// must land on the new medium.
	s.medium = m
	m.register(s)
	old.unregister(s)
	if s.src != nil {
		s.Kick()
	}
}

func (s *Station) ownsAddr(a packet.MACAddr) bool {
	if a == s.Addr {
		return true
	}
	for _, al := range s.Aliases {
		if a == al {
			return true
		}
	}
	return false
}

func (s *Station) responds(from packet.MACAddr) bool {
	if s.respondFilter != nil {
		return s.respondFilter(from)
	}
	return true
}

// Kick schedules a source transmission if one is not already pending. Call
// it whenever the source gains work.
func (s *Station) Kick() {
	if s.src == nil || s.srcPending {
		return
	}
	s.srcPending = true
	s.enqueue(oneshot{
		build: func() *Frame {
			fr := s.src.BuildFrame()
			if fr != nil {
				s.FramesSent++
				s.MPDUsSent += uint64(len(fr.MPDUs))
			}
			return fr
		},
		done: func(res *TxResult) {
			s.srcPending = false
			s.finishResult(res)
			s.src.OnTxDone(res)
		},
	})
}

// SendOneShot transmits a single frame built at grant time (beacons,
// management exchanges). done may be nil.
func (s *Station) SendOneShot(build func() *Frame, done func(*TxResult)) {
	s.enqueue(oneshot{build: build, done: func(res *TxResult) {
		s.finishResult(res)
		if done != nil {
			done(res)
		}
	}})
}

func (s *Station) enqueue(o oneshot) {
	s.oneshots = append(s.oneshots, o)
	s.pump()
}

// pump keeps exactly one attempt outstanding at the medium.
func (s *Station) pump() {
	if s.inFlight || len(s.oneshots) == 0 {
		return
	}
	o := s.oneshots[0]
	s.oneshots = s.oneshots[1:]
	s.inFlight = true
	s.medium.request(&txAttempt{
		st:      s,
		backoff: s.medium.drawBackoff(s.cw),
		build:   o.build,
		done: func(res *TxResult) {
			s.inFlight = false
			o.done(res)
			s.pump()
		},
	})
}

// expectBA is called by the medium when a response addressed to this
// station is planned; the result is completed by deliverBA if the response
// survives the channel.
func (s *Station) expectBA(res *TxResult, ssn uint16) {
	s.awaiting = res
	s.awaitSSN = ssn
}

// finishResult applies contention-window evolution once an attempt ends.
func (s *Station) finishResult(res *TxResult) {
	s.awaiting = nil
	if res == nil || res.Frame == nil {
		return
	}
	if !res.Frame.ExpectsResponse() {
		return
	}
	if res.BAReceived {
		s.cw = phy.CWMin
	} else {
		s.BAMissed++
		s.cw = min(2*s.cw+1, phy.CWMax)
	}
	if res.RespCollision {
		s.RespCollided++
	}
}

// overhears reports whether a monitor-mode capture from from reaches
// anything: with no sink it does not.
func (s *Station) overhears(from packet.MACAddr) bool {
	return s.sink != nil && s.sink.Overhears(from)
}

// deliver hands a received frame to the sink.
func (s *Station) deliver(ev *RxEvent) {
	if s.sink != nil {
		s.sink.OnFrame(ev)
	}
}

// deliverBA completes an awaited result and forwards the event to the sink.
func (s *Station) deliverBA(ev *BAEvent) {
	if !ev.Overheard && s.awaiting != nil && ev.SSN == s.awaitSSN {
		s.awaiting.BAReceived = true
		s.awaiting.SSN = ev.SSN
		s.awaiting.Bitmap = ev.Bitmap
	}
	if s.baSink != nil {
		s.baSink.OnBlockAck(ev)
	}
}

// markRespCollision records an ACK collision against the in-flight result.
func (s *Station) markRespCollision() {
	if s.awaiting != nil {
		s.awaiting.RespCollision = true
	}
}

// NextSeq allocates the next 12-bit 802.11 sequence number toward peer.
func (s *Station) NextSeq(peer packet.MACAddr) uint16 {
	v := s.seq[peer]
	s.seq[peer] = (v + 1) & 0xfff
	return v
}

// PickMCS chooses a transmit rate toward peer using the station's Minstrel
// state.
func (s *Station) PickMCS(peer packet.MACAddr) phy.MCS {
	return s.minstrelFor(peer).pick(s.medium.rnd)
}

// ReportTx feeds a transmission outcome back into rate control.
func (s *Station) ReportTx(peer packet.MACAddr, mcs phy.MCS, attempted, acked int) {
	s.minstrelFor(peer).update(mcs, attempted, acked)
}

func (s *Station) minstrelFor(peer packet.MACAddr) *minstrel {
	rc, ok := s.rc[peer]
	if !ok {
		rc = newMinstrel()
		s.rc[peer] = rc
	}
	return rc
}
