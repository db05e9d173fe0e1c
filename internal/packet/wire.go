package packet

import (
	"encoding/binary"
	"fmt"
	"math"

	"wgtt/internal/sim"
)

// Message is any unit that crosses the Ethernet backhaul. Every message has
// a stable binary wire format so the formats the paper describes are real,
// testable encodings rather than in-memory conveniences.
type Message interface {
	// Type returns the wire discriminator.
	Type() MsgType
	// WireSize returns the encoded payload length in bytes (excluding the
	// 3-byte envelope header).
	WireSize() int
	// marshal appends the payload encoding to dst.
	marshal(dst []byte) []byte
	// unmarshal parses the payload encoding. DecodeInto has checked that src
	// holds at least the value's WireSize() (all of a fixed-size message, the
	// commit's fixed part), and rejects a parse that leaves bytes over.
	unmarshal(src []byte) error
}

// MsgType discriminates backhaul messages.
type MsgType uint8

// Backhaul message types.
const (
	// MsgDownData tunnels one downlink data packet controller→AP (§3.1.3).
	MsgDownData MsgType = iota + 1
	// MsgUpData tunnels one overheard uplink packet AP→controller (§3.2.2).
	MsgUpData
	// MsgStop is the controller→AP "cease sending to client c" command.
	MsgStop
	// MsgStart is the old-AP→new-AP "resume at index k" handoff.
	MsgStart
	// MsgSwitchAck is the new-AP→controller switch acknowledgement.
	MsgSwitchAck
	// MsgCSI is an AP→controller CSI report.
	MsgCSI
	// MsgBAFwd is a neighbour-AP→serving-AP forwarded Block ACK (§3.2.1).
	MsgBAFwd
	// Type 8 is retired: it was the §4.3 AP→AP association sync, which
	// nothing sent (replication happens at scenario assembly). The gap
	// stays reserved so the types after it keep their wire numbers.
	_
	// MsgHealthProbe is a controller→AP liveness probe. The paper's control
	// plane assumes APs never fail; the probe/ack pair backs the AP health
	// monitor that relaxes that assumption (DESIGN.md §11).
	MsgHealthProbe
	// MsgHealthAck is the AP→controller reply to a health probe.
	MsgHealthAck
	// MsgDomainHandoffOffer proposes moving a client between controller
	// domains: the owning controller tells the peer which AP the evidence
	// points at (DESIGN.md §13).
	MsgDomainHandoffOffer
	// MsgDomainHandoffAccept is the peer controller's answer to an offer.
	MsgDomainHandoffAccept
	// MsgDomainHandoffCommit transfers the client's volatile state bundle
	// (downlink index cursor, uplink dedup window, ESNR evidence) to the new
	// owner; sent slim (no bundle) as an ownership announcement to third
	// domains.
	MsgDomainHandoffCommit
)

// messages is the type table: each wire type's name and a constructor of
// the value its payload decodes into. A zero entry is no message type.
var messages = [...]struct {
	name string
	new  func() Message
}{
	MsgDownData:            {"down-data", func() Message { return &DownData{} }},
	MsgUpData:              {"up-data", func() Message { return &UpData{} }},
	MsgStop:                {"stop", func() Message { return &Stop{} }},
	MsgStart:               {"start", func() Message { return &Start{} }},
	MsgSwitchAck:           {"switch-ack", func() Message { return &SwitchAck{} }},
	MsgCSI:                 {"csi", func() Message { return &CSIReport{} }},
	MsgBAFwd:               {"ba-fwd", func() Message { return &BlockAckFwd{} }},
	MsgHealthProbe:         {"health-probe", func() Message { return &HealthProbe{} }},
	MsgHealthAck:           {"health-ack", func() Message { return &HealthAck{} }},
	MsgDomainHandoffOffer:  {"handoff-offer", func() Message { return &DomainHandoffOffer{} }},
	MsgDomainHandoffAccept: {"handoff-accept", func() Message { return &DomainHandoffAccept{} }},
	MsgDomainHandoffCommit: {"handoff-commit", func() Message { return &DomainHandoffCommit{} }},
}

// String implements fmt.Stringer.
func (t MsgType) String() string {
	if int(t) < len(messages) && messages[t].new != nil {
		return messages[t].name
	}
	return fmt.Sprintf("msg?%d", uint8(t))
}

// Encode serializes a message with its 3-byte envelope: type (1) and
// payload length (2, big-endian).
func Encode(m Message) []byte {
	return EncodeInto(make([]byte, 0, 3+m.WireSize()), m)
}

// EncodeInto appends m's enveloped encoding to dst and returns the extended
// slice, following the append convention: a hot path that replicates one
// message to many destinations (§3.1.1 downlink fan-out) encodes once into
// a reused scratch buffer instead of allocating per copy. The produced
// bytes are identical to Encode's.
func EncodeInto(dst []byte, m Message) []byte {
	n := m.WireSize()
	dst = append(dst, byte(m.Type()))
	dst = binary.BigEndian.AppendUint16(dst, uint16(n))
	dst = m.marshal(dst)
	return dst
}

// Decode parses one enveloped message into a freshly allocated value the
// caller owns.
func Decode(src []byte) (Message, error) { return DecodeInto(src, nil) }

// Scratch is reusable storage for the three envelopes that arrive per packet
// or per frame heard: DownData, CSIReport and BlockAckFwd. Every other type
// is allocated per decode whatever the scratch.
type Scratch struct {
	down DownData
	csi  CSIReport
	ba   BlockAckFwd
}

// envelope returns sc's storage for a message of type t, nil for a nil sc or
// a type it does not hold.
func (sc *Scratch) envelope(t MsgType) Message {
	if sc == nil {
		return nil
	}
	switch t {
	case MsgDownData:
		return &sc.down
	case MsgCSI:
		return &sc.csi
	case MsgBAFwd:
		return &sc.ba
	}
	return nil
}

// DecodeInto parses one enveloped message. It accepts exactly what
// EncodeInto produces: src must be the 3-byte envelope plus the payload
// length it declares, and that payload exactly the declared type's layout —
// no byte short, none left over. With a non-nil sc a DownData, CSIReport or
// BlockAckFwd is decoded into sc and stays valid only until the next
// DecodeInto on the same Scratch; its unmarshal overwrites every field, so
// nothing of the previous message survives. The *Packet inside a DownData
// is allocated per decode either way: AP rings, retry queues and frames keep
// it long after the envelope is gone.
func DecodeInto(src []byte, sc *Scratch) (Message, error) {
	if len(src) < 3 {
		return nil, fmt.Errorf("packet: envelope truncated (%d bytes)", len(src))
	}
	t := MsgType(src[0])
	payload := src[3:]
	if n := int(binary.BigEndian.Uint16(src[1:3])); len(payload) != n {
		return nil, fmt.Errorf("packet: %v envelope declares %d payload bytes, has %d", t, n, len(payload))
	}
	m := sc.envelope(t)
	if m == nil {
		if int(t) >= len(messages) || messages[t].new == nil {
			return nil, fmt.Errorf("packet: unknown message type %d", src[0])
		}
		m = messages[t].new()
	}
	if n := m.WireSize(); len(payload) < n {
		return nil, fmt.Errorf("packet: %v payload truncated: have %d, want %d", t, len(payload), n)
	}
	if err := m.unmarshal(payload); err != nil {
		return nil, fmt.Errorf("packet: %v: %w", t, err)
	}
	if n := m.WireSize(); len(payload) != n {
		return nil, fmt.Errorf("packet: %v payload has %d bytes past its layout", t, len(payload)-n)
	}
	return m, nil
}

// pktHeaderSize is the encoded size of the shared Packet descriptor.
const pktHeaderSize = 4 + 4 + 2 + 4 + 4 + 6 + 2 + 2 + 1 + 8

func marshalPkt(dst []byte, p *Packet) []byte {
	dst = binary.BigEndian.AppendUint32(dst, p.FlowID)
	dst = binary.BigEndian.AppendUint32(dst, p.Seq)
	dst = binary.BigEndian.AppendUint16(dst, p.IPID)
	dst = append(dst, p.SrcIP[:]...)
	dst = append(dst, p.DstIP[:]...)
	dst = append(dst, p.ClientMAC[:]...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(p.Bytes))
	dst = binary.BigEndian.AppendUint16(dst, p.Index)
	flags := byte(p.Kind) << 1
	if p.Uplink {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = binary.BigEndian.AppendUint64(dst, uint64(p.Created))
	return dst
}

// index12 reads a 2-byte index field, refusing a value past IndexMask: no
// such index exists in the protocol, and a ring walk toward one would never
// end.
func index12(src []byte, field string) (uint16, error) {
	v := binary.BigEndian.Uint16(src)
	if v > IndexMask {
		return 0, fmt.Errorf("%s %d exceeds the 12-bit index space", field, v)
	}
	return v, nil
}

func unmarshalPkt(src []byte) (*Packet, error) {
	src = src[:pktHeaderSize] // bounds-check hint
	idx, err := index12(src[26:28], "packet index")
	if err != nil {
		return nil, err
	}
	p := &Packet{Index: idx}
	p.FlowID = binary.BigEndian.Uint32(src[0:4])
	p.Seq = binary.BigEndian.Uint32(src[4:8])
	p.IPID = binary.BigEndian.Uint16(src[8:10])
	copy(p.SrcIP[:], src[10:14])
	copy(p.DstIP[:], src[14:18])
	copy(p.ClientMAC[:], src[18:24])
	p.Bytes = int(binary.BigEndian.Uint16(src[24:26]))
	flags := src[28]
	p.Uplink = flags&1 != 0
	p.Kind = Kind(flags >> 1)
	p.Created = sim.Time(binary.BigEndian.Uint64(src[29:37]))
	return p, nil
}

// DownData tunnels a downlink packet from the controller to one AP: the
// outer header targets the AP's backhaul IP, the inner descriptor keeps the
// client's own L2/L3 addresses so the AP can tell which client queue the
// packet belongs to (§3.1.3).
type DownData struct {
	APDst IPv4Addr // tunnel destination (AP backhaul address)
	Pkt   *Packet
}

// Type implements Message.
func (*DownData) Type() MsgType { return MsgDownData }

// WireSize implements Message.
func (*DownData) WireSize() int { return 4 + pktHeaderSize }

func (d *DownData) marshal(dst []byte) []byte {
	dst = append(dst, d.APDst[:]...)
	return marshalPkt(dst, d.Pkt)
}

func (d *DownData) unmarshal(src []byte) error {
	copy(d.APDst[:], src[0:4])
	var err error
	d.Pkt, err = unmarshalPkt(src[4:])
	return err
}

// UpData tunnels an overheard uplink packet from an AP to the controller,
// with the AP's identity as the outer source so the controller can record
// which AP heard it (§3.2.2).
type UpData struct {
	APSrc IPv4Addr
	Pkt   *Packet
}

// Type implements Message.
func (*UpData) Type() MsgType { return MsgUpData }

// WireSize implements Message.
func (*UpData) WireSize() int { return 4 + pktHeaderSize }

func (u *UpData) marshal(dst []byte) []byte {
	dst = append(dst, u.APSrc[:]...)
	return marshalPkt(dst, u.Pkt)
}

func (u *UpData) unmarshal(src []byte) error {
	copy(u.APSrc[:], src[0:4])
	var err error
	u.Pkt, err = unmarshalPkt(src[4:])
	return err
}

// Stop is step (1) of the switching protocol: the controller tells the
// currently-transmitting AP to cease sending to client c. It carries the
// layer-2 addresses of the client and of the AP taking over (§3.1.2).
type Stop struct {
	Client   MACAddr
	NextAP   IPv4Addr
	SwitchID uint32 // correlates stop/start/ack of one switch attempt
}

// Type implements Message.
func (*Stop) Type() MsgType { return MsgStop }

// WireSize implements Message.
func (*Stop) WireSize() int { return 6 + 4 + 4 }

func (s *Stop) marshal(dst []byte) []byte {
	dst = append(dst, s.Client[:]...)
	dst = append(dst, s.NextAP[:]...)
	return binary.BigEndian.AppendUint32(dst, s.SwitchID)
}

func (s *Stop) unmarshal(src []byte) error {
	src = src[:s.WireSize()] // bounds-check hint
	copy(s.Client[:], src[0:6])
	copy(s.NextAP[:], src[6:10])
	s.SwitchID = binary.BigEndian.Uint32(src[10:14])
	return nil
}

// Start is step (2): the old AP tells the new AP the index k of the first
// unsent packet for client c, so the new AP resumes from its own cyclic
// queue with no backhaul retransfer (§3.1.2).
type Start struct {
	Client   MACAddr
	Index    uint16 // k, 12-bit
	SwitchID uint32
}

// Type implements Message.
func (*Start) Type() MsgType { return MsgStart }

// WireSize implements Message.
func (*Start) WireSize() int { return 6 + 2 + 4 }

func (s *Start) marshal(dst []byte) []byte {
	dst = append(dst, s.Client[:]...)
	dst = binary.BigEndian.AppendUint16(dst, s.Index)
	return binary.BigEndian.AppendUint32(dst, s.SwitchID)
}

func (s *Start) unmarshal(src []byte) error {
	src = src[:s.WireSize()] // bounds-check hint
	copy(s.Client[:], src[0:6])
	s.SwitchID = binary.BigEndian.Uint32(src[8:12])
	var err error
	s.Index, err = index12(src[6:8], "start index")
	return err
}

// SwitchAck is step (3): the new AP confirms the switch to the controller.
type SwitchAck struct {
	Client   MACAddr
	AP       IPv4Addr // acknowledging AP
	SwitchID uint32
}

// Type implements Message.
func (*SwitchAck) Type() MsgType { return MsgSwitchAck }

// WireSize implements Message.
func (*SwitchAck) WireSize() int { return 6 + 4 + 4 }

func (a *SwitchAck) marshal(dst []byte) []byte {
	dst = append(dst, a.Client[:]...)
	dst = append(dst, a.AP[:]...)
	return binary.BigEndian.AppendUint32(dst, a.SwitchID)
}

func (a *SwitchAck) unmarshal(src []byte) error {
	src = src[:a.WireSize()] // bounds-check hint
	copy(a.Client[:], src[0:6])
	copy(a.AP[:], src[6:10])
	a.SwitchID = binary.BigEndian.Uint32(src[10:14])
	return nil
}

// CSISubcarriers is the per-report subcarrier count on the wire.
const CSISubcarriers = 56

// DB is a dB figure in the wire's 0.25 dB fixed point, an int16 on the
// wire: CSI subcarrier SNRs and the handoff's ESNR evidence. It mirrors the
// compact encoding of the Atheros CSI tool's UDP export.
type DB int16

// QuantizeDB rounds db to the nearest quarter dB, clamped to the int16 range.
func QuantizeDB(db float64) DB {
	return DB(math.Round(min(max(db*4, math.MinInt16), math.MaxInt16)))
}

// Float returns q in dB.
func (q DB) Float() float64 { return float64(q) / 4 }

// CSIReport carries one CSI measurement AP→controller, one quantized SNR
// per subcarrier.
type CSIReport struct {
	Client MACAddr
	AP     IPv4Addr
	At     int64 // sim.Time in ns
	SNRQ   [CSISubcarriers]DB
}

// Type implements Message.
func (*CSIReport) Type() MsgType { return MsgCSI }

// WireSize implements Message.
func (*CSIReport) WireSize() int { return 6 + 4 + 8 + 2*CSISubcarriers }

func (c *CSIReport) marshal(dst []byte) []byte {
	dst = append(dst, c.Client[:]...)
	dst = append(dst, c.AP[:]...)
	dst = binary.BigEndian.AppendUint64(dst, uint64(c.At))
	for _, q := range c.SNRQ {
		dst = binary.BigEndian.AppendUint16(dst, uint16(q))
	}
	return dst
}

func (c *CSIReport) unmarshal(src []byte) error {
	src = src[:c.WireSize()] // bounds-check hint
	copy(c.Client[:], src[0:6])
	copy(c.AP[:], src[6:10])
	c.At = int64(binary.BigEndian.Uint64(src[10:18]))
	for i := range c.SNRQ {
		c.SNRQ[i] = DB(binary.BigEndian.Uint16(src[18+2*i : 20+2*i]))
	}
	return nil
}

// QuantizeSNR quantizes per-subcarrier dB values into the report; missing
// trailing subcarriers read as 0 dB.
func (c *CSIReport) QuantizeSNR(snrDB []float64) {
	for i := range c.SNRQ {
		v := 0.0
		if i < len(snrDB) {
			v = snrDB[i]
		}
		c.SNRQ[i] = QuantizeDB(v)
	}
}

// SNRdBInto unpacks the quantized SNRs back to dB into dst, reusing its
// capacity, and returns the filled slice of length CSISubcarriers.
func (c *CSIReport) SNRdBInto(dst []float64) []float64 {
	if cap(dst) < CSISubcarriers {
		dst = make([]float64, CSISubcarriers)
	}
	dst = dst[:CSISubcarriers]
	for i, q := range c.SNRQ {
		dst[i] = q.Float()
	}
	return dst
}

// BlockAckFwd carries an overheard Block ACK from a monitor-mode AP to the
// client's serving AP: client address, starting sequence number, and the
// 64-bit compressed bitmap (§3.2.1).
type BlockAckFwd struct {
	Client MACAddr
	FromAP IPv4Addr
	SSN    uint16 // starting 802.11 sequence number of the bitmap window
	Bitmap uint64
}

// Type implements Message.
func (*BlockAckFwd) Type() MsgType { return MsgBAFwd }

// WireSize implements Message.
func (*BlockAckFwd) WireSize() int { return 6 + 4 + 2 + 8 }

func (b *BlockAckFwd) marshal(dst []byte) []byte {
	dst = append(dst, b.Client[:]...)
	dst = append(dst, b.FromAP[:]...)
	dst = binary.BigEndian.AppendUint16(dst, b.SSN)
	return binary.BigEndian.AppendUint64(dst, b.Bitmap)
}

func (b *BlockAckFwd) unmarshal(src []byte) error {
	src = src[:b.WireSize()] // bounds-check hint
	copy(b.Client[:], src[0:6])
	copy(b.FromAP[:], src[6:10])
	b.Bitmap = binary.BigEndian.Uint64(src[12:20])
	var err error
	b.SSN, err = index12(src[10:12], "Block ACK SSN")
	return err
}

// HealthProbe asks one AP to prove it is alive. The controller normally
// infers liveness from the CSI/uplink stream an AP emits anyway; a probe is
// sent only when that stream has gone quiet, so an in-range crash and an
// AP that merely hears no clients are distinguishable (DESIGN.md §11).
type HealthProbe struct {
	Seq uint32
	At  int64 // controller send time, sim.Time in ns, echoed in the ack
}

// Type implements Message.
func (*HealthProbe) Type() MsgType { return MsgHealthProbe }

// WireSize implements Message.
func (*HealthProbe) WireSize() int { return 4 + 8 }

func (h *HealthProbe) marshal(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, h.Seq)
	return binary.BigEndian.AppendUint64(dst, uint64(h.At))
}

func (h *HealthProbe) unmarshal(src []byte) error {
	src = src[:h.WireSize()] // bounds-check hint
	h.Seq = binary.BigEndian.Uint32(src[0:4])
	h.At = int64(binary.BigEndian.Uint64(src[4:12]))
	return nil
}

// HealthAck answers a HealthProbe. It echoes the probe's sequence number
// and send timestamp, so the controller can both refresh the AP's
// last-heard time and measure the control-plane round trip.
type HealthAck struct {
	AP  IPv4Addr // answering AP's backhaul address
	Seq uint32
	At  int64 // the probe's At, echoed
}

// Type implements Message.
func (*HealthAck) Type() MsgType { return MsgHealthAck }

// WireSize implements Message.
func (*HealthAck) WireSize() int { return 4 + 4 + 8 }

func (h *HealthAck) marshal(dst []byte) []byte {
	dst = append(dst, h.AP[:]...)
	dst = binary.BigEndian.AppendUint32(dst, h.Seq)
	return binary.BigEndian.AppendUint64(dst, uint64(h.At))
}

func (h *HealthAck) unmarshal(src []byte) error {
	src = src[:h.WireSize()] // bounds-check hint
	copy(h.AP[:], src[0:4])
	h.Seq = binary.BigEndian.Uint32(src[4:8])
	h.At = int64(binary.BigEndian.Uint64(src[8:16]))
	return nil
}

// Caps on the variable-length sections of DomainHandoffCommit. They bound
// both the encoded size and what the decoder will allocate for a hostile
// length field; senders clamp to them (the dedup window is a recency FIFO,
// so clamping keeps the newest keys).
const (
	// MaxHandoffDedupKeys bounds the uplink dedup window carried in a commit.
	MaxHandoffDedupKeys = 512
	// MaxHandoffEvidence bounds the per-AP ESNR evidence entries in a commit.
	MaxHandoffEvidence = 32
)

// DomainHandoffOffer is step (1) of the inter-controller handoff protocol
// (DESIGN.md §13): the controller owning a client proposes transferring it
// to the peer whose domain contains the AP the client's ESNR evidence
// points at. Addressing is controller→controller on the backhaul.
type DomainHandoffOffer struct {
	HandoffID uint32 // correlates offer/accept/commit of one handoff
	Client    MACAddr
	ClientIP  IPv4Addr
	ServingAP IPv4Addr // client's current serving AP (owner's domain)
	TargetAP  IPv4Addr // AP in the peer's domain the evidence points at
	EvidenceQ DB       // best foreign windowed-median ESNR
}

// Type implements Message.
func (*DomainHandoffOffer) Type() MsgType { return MsgDomainHandoffOffer }

// WireSize implements Message.
func (*DomainHandoffOffer) WireSize() int { return 4 + 6 + 4 + 4 + 4 + 2 }

func (o *DomainHandoffOffer) marshal(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, o.HandoffID)
	dst = append(dst, o.Client[:]...)
	dst = append(dst, o.ClientIP[:]...)
	dst = append(dst, o.ServingAP[:]...)
	dst = append(dst, o.TargetAP[:]...)
	return binary.BigEndian.AppendUint16(dst, uint16(o.EvidenceQ))
}

func (o *DomainHandoffOffer) unmarshal(src []byte) error {
	src = src[:o.WireSize()] // bounds-check hint
	o.HandoffID = binary.BigEndian.Uint32(src[0:4])
	copy(o.Client[:], src[4:10])
	copy(o.ClientIP[:], src[10:14])
	copy(o.ServingAP[:], src[14:18])
	copy(o.TargetAP[:], src[18:22])
	o.EvidenceQ = DB(binary.BigEndian.Uint16(src[22:24]))
	return nil
}

// DomainHandoffAccept is step (2): the peer controller either pre-stages the
// adoption and accepts, or rejects (unknown target AP, client already
// pending, controller shutting down).
type DomainHandoffAccept struct {
	HandoffID uint32
	Client    MACAddr
	Accept    bool
}

// Type implements Message.
func (*DomainHandoffAccept) Type() MsgType { return MsgDomainHandoffAccept }

// WireSize implements Message.
func (*DomainHandoffAccept) WireSize() int { return 4 + 6 + 1 }

func (a *DomainHandoffAccept) marshal(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, a.HandoffID)
	dst = append(dst, a.Client[:]...)
	if a.Accept {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func (a *DomainHandoffAccept) unmarshal(src []byte) error {
	src = src[:a.WireSize()] // bounds-check hint
	a.HandoffID = binary.BigEndian.Uint32(src[0:4])
	copy(a.Client[:], src[4:10])
	if src[10] > 1 {
		return fmt.Errorf("accept flag %d", src[10])
	}
	a.Accept = src[10] == 1
	return nil
}

// APESNR is one ESNR evidence entry in a handoff commit: the owner's
// windowed-median view of one of the new domain's APs, so the adopter can
// seed its selection windows instead of starting cold.
type APESNR struct {
	AP      IPv4Addr
	MedianQ DB
}

// DomainHandoffCommit is step (3): the owner captures the client's volatile
// state at the instant it stops serving it — the 12-bit downlink index
// cursor the new owner must continue from, the most recent uplink dedup
// keys (oldest first), and ESNR evidence — and transfers ownership. The
// adopter echoes a slim commit (empty bundle) back to the old owner as a
// delivery acknowledgement and to third domains as an ownership
// announcement; receivers distinguish the roles by whether TargetAP lies in
// their own domain.
type DomainHandoffCommit struct {
	HandoffID uint32
	Client    MACAddr
	ClientIP  IPv4Addr
	ServingAP IPv4Addr // old AP the new owner must stop→start away from
	TargetAP  IPv4Addr
	NextIndex uint16 // 12-bit downlink index the new owner continues from
	DedupKeys []DedupKey
	Evidence  []APESNR
}

// Type implements Message.
func (*DomainHandoffCommit) Type() MsgType { return MsgDomainHandoffCommit }

// WireSize implements Message.
func (c *DomainHandoffCommit) WireSize() int {
	return 4 + 6 + 4 + 4 + 4 + 2 + 2 + 6*len(c.DedupKeys) + 1 + 6*len(c.Evidence)
}

func (c *DomainHandoffCommit) marshal(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, c.HandoffID)
	dst = append(dst, c.Client[:]...)
	dst = append(dst, c.ClientIP[:]...)
	dst = append(dst, c.ServingAP[:]...)
	dst = append(dst, c.TargetAP[:]...)
	dst = binary.BigEndian.AppendUint16(dst, c.NextIndex)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(c.DedupKeys)))
	for _, k := range c.DedupKeys {
		// 48-bit key: (SrcIP, IPID), high byte first.
		dst = append(dst, byte(k>>40), byte(k>>32), byte(k>>24), byte(k>>16), byte(k>>8), byte(k))
	}
	dst = append(dst, byte(len(c.Evidence)))
	for _, e := range c.Evidence {
		dst = append(dst, e.AP[:]...)
		dst = binary.BigEndian.AppendUint16(dst, uint16(e.MedianQ))
	}
	return dst
}

func (c *DomainHandoffCommit) unmarshal(src []byte) error {
	c.HandoffID = binary.BigEndian.Uint32(src[0:4])
	copy(c.Client[:], src[4:10])
	copy(c.ClientIP[:], src[10:14])
	copy(c.ServingAP[:], src[14:18])
	copy(c.TargetAP[:], src[18:22])
	var err error
	if c.NextIndex, err = index12(src[22:24], "next index"); err != nil {
		return err
	}
	nk := int(binary.BigEndian.Uint16(src[24:26]))
	if nk > MaxHandoffDedupKeys {
		return fmt.Errorf("dedup window too large: %d keys", nk)
	}
	off := 26 // past the fixed fields and the key count
	if len(src) < off+6*nk+1 {
		return fmt.Errorf("truncated dedup window")
	}
	c.DedupKeys = nil
	if nk > 0 {
		c.DedupKeys = make([]DedupKey, nk)
		for i := range c.DedupKeys {
			b := src[off+6*i:]
			c.DedupKeys[i] = DedupKey(uint64(b[0])<<40 | uint64(b[1])<<32 |
				uint64(b[2])<<24 | uint64(b[3])<<16 | uint64(b[4])<<8 | uint64(b[5]))
		}
	}
	off += 6 * nk
	ne := int(src[off])
	if ne > MaxHandoffEvidence {
		return fmt.Errorf("evidence section too large: %d entries", ne)
	}
	off++
	if len(src) < off+6*ne {
		return fmt.Errorf("truncated evidence")
	}
	c.Evidence = nil
	if ne > 0 {
		c.Evidence = make([]APESNR, ne)
		for i := range c.Evidence {
			b := src[off+6*i:]
			copy(c.Evidence[i].AP[:], b[0:4])
			c.Evidence[i].MedianQ = DB(binary.BigEndian.Uint16(b[4:6]))
		}
	}
	return nil
}
