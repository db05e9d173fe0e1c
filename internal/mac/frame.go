// Package mac implements the 802.11n link layer the WGTT system runs over:
// DCF medium access with binary-exponential backoff, A-MPDU frame
// aggregation, compressed Block ACK with a 64-frame scoreboard, Minstrel-
// style rate adaptation, and per-MPDU retransmission.
//
// The fidelity target is the set of phenomena the paper's design leans on:
// aggregation is what makes per-packet overhead tolerable at high rates
// (§1), Block ACK loss at cell edges is what Block-ACK forwarding repairs
// (§3.2.1), and multiple APs answering one client is what the ACK-collision
// analysis (§5.3.2, Table 3) quantifies.
package mac

import (
	"fmt"

	"wgtt/internal/csi"
	"wgtt/internal/packet"
	"wgtt/internal/phy"
	"wgtt/internal/sim"
)

// BroadcastAddr is the all-ones layer-2 address.
var BroadcastAddr = packet.MACAddr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// FrameKind classifies transmissions.
type FrameKind uint8

// Frame kinds.
const (
	// KindData is an A-MPDU data frame expecting a Block ACK.
	KindData FrameKind = iota
	// KindMgmt is a single-MPDU management frame expecting a legacy ACK
	// (association, authentication, re-association).
	KindMgmt
	// KindBeacon is a broadcast beacon; no response.
	KindBeacon
)

// String implements fmt.Stringer.
func (k FrameKind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindMgmt:
		return "mgmt"
	case KindBeacon:
		return "beacon"
	default:
		return fmt.Sprintf("kind?%d", uint8(k))
	}
}

// MPDU is one MAC protocol data unit inside an (aggregate) frame.
type MPDU struct {
	// Seq is the 12-bit 802.11 sequence number assigned by the sender.
	Seq uint16
	// Pkt is the tunneled IP packet, nil for management bodies.
	Pkt *packet.Packet
	// Bytes is the MPDU payload length.
	Bytes int
	// Retries counts transmission attempts so far.
	Retries int
}

// Frame is one PPDU on the air.
type Frame struct {
	Kind  FrameKind
	From  packet.MACAddr
	To    packet.MACAddr // BroadcastAddr for beacons
	MCS   phy.MCS
	MPDUs []*MPDU
}

// airtime returns the frame's on-air duration, building the A-MPDU's size
// list in *sizes, the caller's reusable buffer.
func (f *Frame) airtime(sizes *[]int) sim.Time {
	if f.Kind == KindBeacon || f.Kind == KindMgmt {
		// Management and beacons go out in legacy format at the basic rate.
		return phy.LegacyDuration(f.totalBytes())
	}
	*sizes = (*sizes)[:0]
	for _, m := range f.MPDUs {
		*sizes = append(*sizes, m.Bytes)
	}
	return phy.AMPDUDuration(f.MCS, *sizes)
}

func (f *Frame) totalBytes() int {
	n := 0
	for _, m := range f.MPDUs {
		n += m.Bytes + phy.MACHeaderBytes + phy.FCSBytes
	}
	return n
}

// ExpectsResponse reports whether the frame solicits an immediate
// SIFS-separated response (Block ACK or legacy ACK).
func (f *Frame) ExpectsResponse() bool {
	return f.Kind != KindBeacon && f.To != BroadcastAddr
}

// StartSeq returns the lowest sequence number in the frame (the Block ACK
// window's starting sequence number).
func (f *Frame) StartSeq() uint16 {
	if len(f.MPDUs) == 0 {
		return 0
	}
	ssn := f.MPDUs[0].Seq
	for _, m := range f.MPDUs[1:] {
		if seqBefore(m.Seq, ssn) {
			ssn = m.Seq
		}
	}
	return ssn
}

// seqBefore reports whether 12-bit sequence a precedes b (circular compare).
func seqBefore(a, b uint16) bool {
	return (b-a)&0xfff != 0 && (b-a)&0xfff < 2048
}

// RxEvent describes one frame arrival at one receiver. It is valid only
// during the Sink.OnFrame call it is passed to.
type RxEvent struct {
	At   sim.Time
	From packet.MACAddr
	Kind FrameKind
	// Synced reports whether the receiver's PHY locked onto the PPDU's
	// preamble/PLCP. CSI is measurable exactly when Synced, even if every
	// MPDU payload then failed its CRC (how the Atheros tool behaves).
	Synced bool
	// Decoded holds the MPDUs this receiver successfully decoded.
	Decoded []*MPDU
	// SNRdB is the receiver's per-subcarrier CSI snapshot for this frame —
	// exactly what the Atheros CSI tool hands to the WGTT AP. Only a synced
	// frame or a beacon is sure to carry one: a frame lost to a collision,
	// or to a sync failure its link budget already decides, is never
	// sampled and its SNRdB is empty.
	SNRdB []float64
	// Overheard is true when the frame was not addressed to this station
	// (monitor-mode capture).
	Overheard bool
	// RSSIdBm is the wideband received power of a beacon — the only channel
	// statistic an unmodified client (the 802.11r baseline) keys its roaming
	// on. Nothing reads it off other frames, so only beacons are measured.
	RSSIdBm float64

	// snrStore inlines the standard 56-entry snapshot so the event carries
	// its CSI; SNRdB aliases it on the usual geometry.
	snrStore [csi.Subcarriers]float64

	// What survives the event's trips through its medium's free list: that
	// medium, Decoded's backing array, and deliver bound once as the engine
	// callback. rx is the station this arrival is for.
	m        *Medium
	rx       *Station
	decStore []*MPDU
	fire     func()
}

// BAEvent describes a (Block) ACK response observed at a station: by the
// original sender (completing its TXOP) or by a monitor-mode neighbour AP
// (feeding §3.2.1 Block ACK forwarding). It is valid only during the
// BASink.OnBlockAck call it is passed to.
type BAEvent struct {
	At sim.Time
	// Responder is the station that sent the Block ACK.
	Responder packet.MACAddr
	// SSN and Bitmap form the compressed Block ACK scoreboard snapshot.
	SSN    uint16
	Bitmap uint64
	// Overheard is true at stations other than the BA's destination.
	Overheard bool
	// SNRdB is the observer's per-subcarrier CSI for the Block ACK frame
	// (always sampled: a Block ACK lost in the channel is not delivered).
	// On a downlink-heavy workload the client's Block ACKs are most of its
	// uplink airtime, so they are the frames WGTT APs measure CSI on.
	SNRdB []float64

	// snrStore backs SNRdB inline, as in RxEvent.
	snrStore [csi.Subcarriers]float64

	// Free-list plumbing, as in RxEvent.
	m    *Medium
	rx   *Station
	fire func()
}
