package radio

import (
	"math"
	"math/rand/v2"
)

// Tap is one path of a tapped-delay-line multipath profile.
type Tap struct {
	DelayNS float64 // excess delay, nanoseconds
	PowerDB float64 // relative power, dB (normalized internally)
}

// DefaultTaps is a 4-tap exponential power-delay profile with an RMS delay
// spread of roughly 70 ns. The paper notes (§4) that WGTT's small cells keep
// the delay spread indoor-like, so the standard Wi-Fi cyclic prefix
// suffices; this profile matches that regime while still being frequency-
// selective enough across 20 MHz for ESNR to out-predict plain RSSI.
func DefaultTaps() []Tap {
	return []Tap{
		{DelayNS: 0, PowerDB: 0},
		{DelayNS: 50, PowerDB: -3},
		{DelayNS: 120, PowerDB: -7},
		{DelayNS: 250, PowerDB: -12},
	}
}

// Fader generates the time-varying, frequency-selective small-scale fading
// of one AP↔client link. Each tap's complex gain is a Jakes-style sum of
// sinusoids whose Doppler spread is set by the client's speed
// (f_d = v/λ; ~22 Hz at 25 mph and 2.4 GHz ⇒ coherence time ≈ 0.423/f_d ≈
// 19 ms for deep decorrelation, with noticeable decorrelation after 2–3 ms,
// matching the paper's §1 channel-coherence discussion).
//
// The process is a pure function of time — sampling is stateless and may
// happen out of order — and is normalized to unit average power so it
// composes additively (in dB) with path loss and antenna gain.
//
// Sampling reuses internal scratch storage and a cached per-subcarrier
// twiddle table, so a Fader is NOT safe for concurrent use. Every fader
// belongs to exactly one simulation cell, and each cell runs on one
// goroutine (DESIGN.md §5/§8), so this needs no locking.
type Fader struct {
	taps  []fadeTap
	norm  float64 // 1/sqrt(total linear tap power · oscillators)
	waveN int

	// scratch holds per-tap gains between tapGainsInto and the subcarrier
	// combine, avoiding a per-sample allocation.
	scratch []complex128
	// twiddle caches exp(−j 2π f_m τ_i) for subcarrier m and tap i, laid
	// out row-major by subcarrier: twiddle[m*len(taps)+i]. Tap delays and
	// subcarrier offsets are fixed per link, so this is computed once (per
	// (count, spacing), which in practice never changes for a fader).
	twiddle     []complex128
	twidN       int
	twidSpacing float64
}

type fadeTap struct {
	amp     float64 // sqrt of normalized linear tap power
	delayNS float64
	// Oscillator parameters: phase offsets and angular Doppler rates.
	phase []float64
	omega []float64 // rad/s
}

// NewFader builds a fader for one link.
//
//	taps        multipath profile (nil ⇒ DefaultTaps)
//	oscillators sinusoids per tap (≥ 4; 8 is a good fidelity/cost balance)
//	dopplerHz   maximum Doppler frequency f_d = v/λ (clamped to minDoppler)
//	rnd         the link's dedicated random stream
func NewFader(taps []Tap, oscillators int, dopplerHz, minDopplerHz float64, rnd *rand.Rand) *Fader {
	if taps == nil {
		taps = DefaultTaps()
	}
	if oscillators < 4 {
		oscillators = 4
	}
	if dopplerHz < minDopplerHz {
		dopplerHz = minDopplerHz
	}
	var total float64
	for _, tp := range taps {
		total += DBToLinear(tp.PowerDB)
	}
	f := &Fader{waveN: oscillators}
	for _, tp := range taps {
		ft := fadeTap{
			amp:     math.Sqrt(DBToLinear(tp.PowerDB) / total),
			delayNS: tp.DelayNS,
			phase:   make([]float64, oscillators),
			omega:   make([]float64, oscillators),
		}
		for n := 0; n < oscillators; n++ {
			// Arrival angles uniform on the circle give the classic Jakes
			// Doppler spectrum; random initial phases decorrelate taps.
			alpha := rnd.Float64() * 2 * math.Pi
			ft.phase[n] = rnd.Float64() * 2 * math.Pi
			ft.omega[n] = 2 * math.Pi * dopplerHz * math.Cos(alpha)
		}
		f.taps = append(f.taps, ft)
	}
	f.norm = 1 / math.Sqrt(float64(oscillators))
	return f
}

// Prime precomputes the twiddle table and scratch storage for the given
// subcarrier count and spacing, so even the first GainsDB sample is
// allocation-free. Called at link-assembly time; sampling with a different
// geometry later just rebuilds the table.
func (f *Fader) Prime(subcarriers int, spacingHz float64) {
	if subcarriers <= 0 {
		return
	}
	f.buildTwiddle(subcarriers, spacingHz)
	f.tapScratch()
}

// tapScratch returns the reusable per-tap gain buffer.
func (f *Fader) tapScratch() []complex128 {
	if cap(f.scratch) < len(f.taps) {
		f.scratch = make([]complex128, len(f.taps))
	}
	return f.scratch[:len(f.taps)]
}

func (f *Fader) tapGainsInto(tSeconds float64, out []complex128) {
	for i := range f.taps {
		tp := &f.taps[i]
		var re, im float64
		for n := 0; n < f.waveN; n++ {
			ph := tp.omega[n]*tSeconds + tp.phase[n]
			s, c := math.Sincos(ph)
			re += c
			im += s
		}
		out[i] = complex(re, im) * complex(tp.amp*f.norm, 0)
	}
}

// GainsDB fills dst with the fading power gain, in dB, on each of len(dst)
// subcarriers at time tSeconds. Subcarrier m (0-based) sits at frequency
// offset (m − (len−1)/2) · spacingHz from the channel center; the DC
// subcarrier is unused in 802.11 so the half-spacing asymmetry is harmless.
func (f *Fader) GainsDB(tSeconds float64, spacingHz float64, dst []float64) {
	n := len(dst)
	if f.twidN != n || f.twidSpacing != spacingHz {
		f.buildTwiddle(n, spacingHz)
	}
	tapGains := f.tapScratch()
	f.tapGainsInto(tSeconds, tapGains)
	nt := len(f.taps)
	for m := 0; m < n; m++ {
		var h complex128
		row := f.twiddle[m*nt : (m+1)*nt]
		for i, g := range tapGains {
			h += g * row[i]
		}
		p := real(h)*real(h) + imag(h)*imag(h)
		dst[m] = LinearToDB(p)
	}
}

// buildTwiddle precomputes the per-(subcarrier, tap) phase rotations
// exp(−j 2π f_m τ_i). The entries are bit-identical to what cmplx.Exp
// produced in the direct evaluation (e^0 · (cos, sin) via math.Sincos), so
// switching to the table changes no sampled value.
func (f *Fader) buildTwiddle(n int, spacingHz float64) {
	nt := len(f.taps)
	if cap(f.twiddle) < n*nt {
		f.twiddle = make([]complex128, n*nt)
	}
	f.twiddle = f.twiddle[:n*nt]
	mid := float64(n-1) / 2
	for m := 0; m < n; m++ {
		freq := (float64(m) - mid) * spacingHz
		for i := 0; i < nt; i++ {
			// exp(−j 2π f τ) phase rotation per tap.
			ph := -2 * math.Pi * freq * f.taps[i].delayNS * 1e-9
			s, c := math.Sincos(ph)
			f.twiddle[m*nt+i] = complex(c, s)
		}
	}
	f.twidN = n
	f.twidSpacing = spacingHz
}

// FlatGainDB returns the wideband (frequency-flat) fading power gain in dB
// at time tSeconds — the power sum over taps, as a broadband receiver
// measuring RSSI would see it.
func (f *Fader) FlatGainDB(tSeconds float64) float64 {
	tapGains := f.tapScratch()
	f.tapGainsInto(tSeconds, tapGains)
	var p float64
	for _, g := range tapGains {
		p += real(g)*real(g) + imag(g)*imag(g)
	}
	return LinearToDB(p)
}

// DopplerHz computes the maximum Doppler shift for a client speed (m/s) at
// carrier frequency freqHz.
func DopplerHz(speedMS, freqHz float64) float64 {
	return speedMS / Wavelength(freqHz)
}
