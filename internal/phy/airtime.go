package phy

import (
	"math"

	"wgtt/internal/sim"
)

// 802.11n (2.4 GHz, HT20, short guard interval) timing constants.
const (
	// SIFS is the short interframe space.
	SIFS = 10 * sim.Microsecond
	// Slot is the (short) slot time.
	Slot = 9 * sim.Microsecond
	// DIFS = SIFS + 2·Slot.
	DIFS = SIFS + 2*Slot
	// HTPreamble is the HT-mixed-format PHY preamble + header for one
	// spatial stream: L-STF(8) + L-LTF(8) + L-SIG(4) + HT-SIG(8) +
	// HT-STF(4) + HT-LTF(4) µs.
	HTPreamble = 36 * sim.Microsecond
	// LegacyPreamble covers control responses (ACK/Block ACK) sent in
	// non-HT OFDM format: 20 µs preamble+header.
	LegacyPreamble = 20 * sim.Microsecond
	// SymbolDuration is one OFDM symbol with short guard interval.
	SymbolDuration = 3600 * sim.Nanosecond

	// CWMin and CWMax bound the DCF contention window.
	CWMin = 15
	CWMax = 1023

	// MACHeaderBytes is a QoS data MPDU header (24 + 2 QoS).
	MACHeaderBytes = 26
	// FCSBytes is the frame check sequence.
	FCSBytes = 4
	// MPDUDelimiterBytes precedes each MPDU inside an A-MPDU.
	MPDUDelimiterBytes = 4

	// BasicRateMbps is the legacy OFDM rate used for control responses.
	BasicRateMbps = 24.0

	// BlockAckBytes is a compressed Block ACK frame body (2 control, 2
	// duration, 12 addresses, 2 BA control, 2 SSN, 8 bitmap, 4 FCS).
	BlockAckBytes = 32
	// AckBytes is a legacy ACK frame.
	AckBytes = 14
)

// MPDUOverheadBytes is the fixed per-MPDU cost inside an A-MPDU (header,
// FCS, delimiter; padding averaged in).
const MPDUOverheadBytes = MACHeaderBytes + FCSBytes + MPDUDelimiterBytes

// DataDuration returns the on-air time of payload bits (with PHY padding to
// whole OFDM symbols) at the given MCS, excluding the preamble.
func DataDuration(m MCS, bytes int) sim.Time {
	if bytes <= 0 {
		return 0
	}
	rate := Lookup(m).DataRateMbps // Mbit/s == bits/µs
	bits := float64(bytes*8 + 22)  // SERVICE(16) + tail(6)
	symbols := math.Ceil(bits / (rate * SymbolDuration.Microseconds()))
	return sim.Time(symbols) * SymbolDuration
}

// AMPDUDuration returns the full on-air time of an A-MPDU carrying the given
// MPDU payload sizes at MCS m: HT preamble plus all MPDUs (with per-MPDU
// overhead) back to back in one PPDU.
func AMPDUDuration(m MCS, payloadBytes []int) sim.Time {
	total := 0
	for _, b := range payloadBytes {
		total += b + MPDUOverheadBytes
	}
	return HTPreamble + DataDuration(m, total)
}

// LegacyDuration returns the on-air time of a legacy-OFDM frame of the
// given length at the basic rate: control responses, beacons, management.
func LegacyDuration(bytes int) sim.Time {
	bits := float64(bytes*8 + 22)
	symbols := math.Ceil(bits / (BasicRateMbps * 4)) // legacy symbols are 4 µs
	return LegacyPreamble + sim.Time(symbols)*4*sim.Microsecond
}

// BlockAckDuration is the on-air time of a compressed Block ACK response.
func BlockAckDuration() sim.Time { return LegacyDuration(BlockAckBytes) }

// AckDuration is the on-air time of a legacy ACK.
func AckDuration() sim.Time { return LegacyDuration(AckBytes) }

// TXOPLimit is the maximum time one A-MPDU may occupy the medium (the
// best-effort TXOP cap drivers enforce so low-rate senders cannot hog the
// channel).
const TXOPLimit = 4 * sim.Millisecond

// TXOPByteBudget returns how many payload bytes fit in a TXOPLimit-long
// A-MPDU at the given MCS.
func TXOPByteBudget(m MCS) int {
	usable := (TXOPLimit - HTPreamble).Microseconds()
	return int(Lookup(m).DataRateMbps * usable / 8)
}
