// Package csi models the channel state information pipeline of WGTT: each
// AP's NIC measures per-subcarrier CSI on every uplink frame (the Atheros
// CSI Tool reports all 56 OFDM subcarriers of an HT20 channel), encapsulates
// it in a UDP report, and ships it to the controller, which computes
// Effective SNR (Halperin et al.) — the link metric the AP selection
// algorithm of §3.1.1 runs on.
package csi

import (
	"math"

	"wgtt/internal/phy"
)

// Subcarriers is the number of CSI-visible subcarriers (HT20).
const Subcarriers = 56

// DefaultESNRModulation is the constellation the default ESNR metric is
// computed against. 64-QAM's BER curve stays informative across the whole
// 0–30 dB range the testbed links span; lower-order curves underflow (and
// the metric saturates) above ~20 dB.
const DefaultESNRModulation = phy.QAM64

// ESNRdB computes the Effective SNR of per-subcarrier SNRs for a given
// modulation: average the per-subcarrier BERs, then invert the AWGN BER
// curve to find the flat-channel SNR that would produce the same average.
// Unlike mean SNR or RSSI, this correctly penalizes frequency-selective
// fades that concentrate errors on a few subcarriers.
// The whole computation stays in the dB domain: one table lookup per
// subcarrier (phy.Modulation.BERdB) and one table inversion per report,
// with no per-subcarrier pow/erfc.
func ESNRdB(snrDB []float64, m phy.Modulation) float64 {
	if len(snrDB) == 0 {
		return math.Inf(-1)
	}
	var sum float64
	for _, s := range snrDB {
		sum += m.BERdB(s)
	}
	mean := sum / float64(len(snrDB))
	return m.InvBERdB(mean)
}
