// Package radio models the wireless channel of the WGTT testbed (§2,
// §4.2): log-distance path loss, the 21°-beamwidth parabolic AP antennas of
// the §4.2 deployment, and temporally-correlated, frequency-selective
// Rayleigh fading (a Jakes sum-of-sinusoids process over a tapped delay
// line).
//
// The model is built to reproduce the two phenomena of the paper's Fig. 2
// (§2) that define the vehicular picocell regime: second-scale fading with
// distance as a car crosses a cell, and millisecond-scale fast fading from
// constructive/destructive multipath (coherence time ≈ 2–3 ms at 2.4 GHz),
// which together flip the best-AP choice every few milliseconds.
//
// All quantities are sampled as pure functions of virtual time, so any
// component may probe the channel at any instant and out of order (the
// paper's Fig. 21 window-size emulation replays recorded ESNR traces).
package radio

import "math"

// DBToLinear converts a power ratio in dB to linear scale.
func DBToLinear(db float64) float64 { return math.Pow(10, db/10) }

// LinearToDB converts a linear power ratio to dB. Zero or negative input
// maps to -inf dB.
func LinearToDB(lin float64) float64 {
	if lin <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(lin)
}

// SpeedOfLight in meters per second.
const SpeedOfLight = 299792458.0

// Wavelength returns the RF wavelength in meters for a carrier frequency in
// Hz. At 2.4 GHz this is ≈ 12.5 cm — the spatial scale of the fast fading
// the paper exploits.
func Wavelength(freqHz float64) float64 { return SpeedOfLight / freqHz }

// FreeSpacePathLossDB returns the free-space path loss in dB at distance d
// meters and carrier frequency freqHz.
func FreeSpacePathLossDB(d, freqHz float64) float64 {
	if d < 0.1 {
		d = 0.1 // clamp: the model is not valid in the reactive near field
	}
	return 20 * math.Log10(4*math.Pi*d*freqHz/SpeedOfLight)
}

// ThermalNoiseDBm returns the thermal noise floor for the given bandwidth in
// Hz at 290 K plus the given receiver noise figure in dB.
func ThermalNoiseDBm(bandwidthHz, noiseFigureDB float64) float64 {
	return -174 + 10*math.Log10(bandwidthHz) + noiseFigureDB
}
