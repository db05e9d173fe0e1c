package radio

import (
	"math"

	"wgtt/internal/mobility"
	"wgtt/internal/sim"
)

// Endpoint is one radio node: an AP (directional antenna, fixed position,
// window/cable losses) or a client (omni antenna, vehicular trace).
type Endpoint struct {
	Name         string
	Trace        mobility.Trace
	Antenna      Antenna
	BoresightRad float64 // antenna orientation; ignored by omni antennas
	TxPowerDBm   float64
	ExtraLossDB  float64 // fixed per-node losses (cables, splitter, window)
	SpeedHintMS  float64 // design speed used to set the link Doppler spread
}

// Position returns the endpoint's location at time t.
func (e *Endpoint) Position(t sim.Time) mobility.Point { return e.Trace.Position(t) }

// GainTowardDB returns the endpoint's antenna gain toward point q at time t.
func (e *Endpoint) GainTowardDB(t sim.Time, q mobility.Point) float64 {
	angle := e.Position(t).AngleTo(q) - e.BoresightRad
	return e.Antenna.GainDB(angle)
}

// Link is the radio channel between two endpoints. The large-scale path is
// deterministic from geometry; the small-scale term is a frequency-selective
// Fader. Channel reciprocity holds (as on a real TDD Wi-Fi channel): both
// directions share the same fading and path gain and differ only in transmit
// power, which is what lets WGTT predict downlink quality from uplink CSI.
type Link struct {
	A, B   *Endpoint
	fader  *Fader
	params Params

	// disturb is an optional extra time-varying attenuation (dB) modelling
	// scattering from other vehicles near the link (see Channel.AddDisturber).
	disturb func(t sim.Time) float64

	// shadow, when set, adds spatially-correlated log-normal shadowing
	// evaluated at the mobile endpoint's position.
	shadow *Shadower
	mobile *Endpoint

	samples *uint64 // the channel's Samples
}

// PathGainDB is the deterministic (no-fading) gain of the link at time t:
// both antenna gains minus path loss and fixed losses. Typically negative.
func (l *Link) PathGainDB(t sim.Time) float64 {
	pa, pb := l.A.Position(t), l.B.Position(t)
	d := pa.Distance(pb)
	pl := FreeSpacePathLossDB(refDistanceM, l.params.FrequencyHz) + 10*pathLossExponent*math.Log10(math.Max(d, refDistanceM)/refDistanceM)
	g := l.A.GainTowardDB(t, pb) + l.B.GainTowardDB(t, pa)
	loss := l.A.ExtraLossDB + l.B.ExtraLossDB
	if l.params.Obstruction != nil {
		loss += l.params.Obstruction(pa, pb)
	}
	if l.disturb != nil {
		loss += l.disturb(t)
	}
	if l.shadow != nil {
		mp := l.mobile.Position(t)
		g += l.shadow.GainDB(mp.X, mp.Y)
	}
	return g - pl - loss
}

// BudgetDB is the link's SNR at time t for a transmission at txPowerDBm
// before small-scale fading: transmit power plus path gain, less the noise
// floor. Every subcarrier's SNR is this plus its fading gain, so one budget
// serves both a decision against CeilingDB and the sample that follows it.
func (l *Link) BudgetDB(t sim.Time, txPowerDBm float64) float64 {
	return txPowerDBm + l.PathGainDB(t) - noiseFloorDBm
}

// CeilingDB bounds the fading gain of every subcarrier at every instant
// (0 with fading off): no subcarrier of SampleInto exceeds its budget plus
// the ceiling, so neither does any ESNR over them.
func (l *Link) CeilingDB() float64 {
	if l.params.NoFading {
		return 0
	}
	return l.fader.ceilingDB
}

// SampleInto fills dst (reusing its capacity) with the per-subcarrier SNR
// at time t over budgetDB, the link's BudgetDB for the transmission, and
// returns the filled slice of length Params.Subcarriers.
func (l *Link) SampleInto(t sim.Time, budgetDB float64, dst []float64) []float64 {
	n := l.params.Subcarriers
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	if l.params.NoFading {
		for i := range dst {
			dst[i] = budgetDB
		}
		return dst
	}
	*l.samples++
	l.fader.GainsDB(t.Seconds(), l.params.SubcarrierSpacingHz, dst)
	for i := range dst {
		dst[i] += budgetDB
	}
	return dst
}

// SNRInto is SampleInto over the link's budget for a transmission from
// endpoint from.
func (l *Link) SNRInto(t sim.Time, from *Endpoint, dst []float64) []float64 {
	return l.SampleInto(t, l.BudgetDB(t, from.TxPowerDBm), dst)
}

func (l *Link) flatFadeDB(t sim.Time) float64 {
	if l.params.NoFading {
		return 0
	}
	return l.fader.FlatGainDB(t.Seconds())
}

// RSSIdBm returns the received signal strength at time t for a transmission
// at txPowerDBm — path gain plus flat fading, which is what an RSSI-based
// scheme (the Enhanced 802.11r baseline) measures.
func (l *Link) RSSIdBm(t sim.Time, txPowerDBm float64) float64 {
	return txPowerDBm + l.PathGainDB(t) + l.flatFadeDB(t)
}
