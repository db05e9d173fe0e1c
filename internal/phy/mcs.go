package phy

import (
	"fmt"
	"math"
)

// MCS is an 802.11n modulation-and-coding-scheme index, 0–7 (one spatial
// stream).
type MCS int

// NumMCS is the number of single-stream rates.
const NumMCS = 8

// Info describes one MCS.
type Info struct {
	Index        MCS
	Modulation   Modulation
	CodeRate     float64 // convolutional code rate
	DataRateMbps float64 // HT20, short guard interval
	// Threshold50 is the Effective SNR (dB) at which a 1500-byte frame
	// sees 50% loss — the anchor of the PER model. Values follow published
	// 802.11n HT20 link-level results.
	Threshold50 float64
}

// table holds HT20 short-GI single-stream rates.
var table = [NumMCS]Info{
	{0, BPSK, 1.0 / 2, 7.2, 2.5},
	{1, QPSK, 1.0 / 2, 14.4, 5.5},
	{2, QPSK, 3.0 / 4, 21.7, 8.5},
	{3, QAM16, 1.0 / 2, 28.9, 11.5},
	{4, QAM16, 3.0 / 4, 43.3, 15.0},
	{5, QAM64, 2.0 / 3, 57.8, 19.0},
	{6, QAM64, 3.0 / 4, 65.0, 21.0},
	{7, QAM64, 5.0 / 6, 72.2, 23.0},
}

// Lookup returns the MCS description. It panics on an out-of-range index —
// rate-control code must never fabricate one.
func Lookup(m MCS) Info {
	if m < 0 || m >= NumMCS {
		panic(fmt.Sprintf("phy: MCS %d out of range", m))
	}
	return table[m]
}

// String implements fmt.Stringer.
func (m MCS) String() string {
	if m < 0 || m >= NumMCS {
		return fmt.Sprintf("MCS?%d", int(m))
	}
	return fmt.Sprintf("MCS%d(%.1f Mb/s)", int(m), table[m].DataRateMbps)
}

// DataRateMbps is shorthand for Lookup(m).DataRateMbps.
func (m MCS) DataRateMbps() float64 { return Lookup(m).DataRateMbps }

// perWidthDB is the logistic slope of the ESNR→PER curve: the transition
// from 90% to 10% loss spans roughly 4·width dB, matching the steep
// waterfall of coded OFDM links.
const perWidthDB = 0.9

// refFrameBytes anchors the Threshold50 calibration.
const refFrameBytes = 1500

// Sync-failure curve: the PHY preamble and PLCP header go out in the most
// robust format, but below ~0 dB the receiver cannot synchronize at all, no
// matter how short the payload. Without this floor, the per-bit length
// scaling would let tiny frames "decode" at −10 dB, which no hardware does.
const (
	syncThresholdDB = 0.5
	syncWidthDB     = 0.7
)

// SyncFailureProb returns the probability that frame detection/PLCP
// decoding fails outright at the given ESNR.
func SyncFailureProb(esnrDB float64) float64 {
	return 1 / (1 + math.Exp((esnrDB-syncThresholdDB)/syncWidthDB))
}

// PayloadPER returns the probability that a frameBytes-long MPDU at the
// given MCS fails its CRC *given that the receiver synchronized to the
// PPDU*. The 1500-byte anchor curve is logistic in dB; other lengths scale
// by the per-bit survival probability (short frames are hardier, long
// frames more fragile).
func PayloadPER(m MCS, esnrDB float64, frameBytes int) float64 {
	if frameBytes <= 0 {
		return 0
	}
	info := Lookup(m)
	ref := 1 / (1 + math.Exp((esnrDB-info.Threshold50)/perWidthDB))
	// ref is PER at 1500 bytes: logistic increasing as esnr drops.
	// Convert to per-reference survival and re-scale to the actual length.
	surv := 1 - ref
	if surv <= 0 {
		return 1
	}
	scaled := 1 - math.Pow(surv, float64(frameBytes)/refFrameBytes)
	if scaled < 0 {
		return 0
	}
	if scaled > 1 {
		return 1
	}
	return scaled
}

// PER returns the total loss probability of a frameBytes-long MPDU at the
// given MCS: PHY synchronization failure composed with the payload error
// given sync.
func PER(m MCS, esnrDB float64, frameBytes int) float64 {
	if frameBytes <= 0 {
		return 0
	}
	loss := 1 - (1-PayloadPER(m, esnrDB, frameBytes))*(1-SyncFailureProb(esnrDB))
	if loss < 0 {
		return 0
	}
	if loss > 1 {
		return 1
	}
	return loss
}
