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
// Sampling reuses internal scratch storage, so a Fader is NOT safe for
// concurrent use. Every fader belongs to exactly one simulation cell, and
// each cell runs on one goroutine (DESIGN.md §5/§8), so this needs no
// locking.
type Fader struct {
	taps  []fadeTap
	norm  float64 // 1/sqrt(total linear tap power · oscillators)
	waveN int

	// ceilingDB bounds every subcarrier's gain at every instant: the power
	// of all taps' oscillators in phase, (Σ amp·norm·waveN)², since
	// |H_m| ≤ Σ_i |g_i| and |g_i| ≤ amp_i·norm·waveN.
	ceilingDB float64

	// scratch holds per-tap gains between tapGainsInto and the subcarrier
	// combine, avoiding a per-sample allocation.
	scratch []complex128
	// twid is the subcarrier geometry GainsDB combines over; a Channel's
	// links share one (see twiddle).
	twid *twiddle
}

type fadeTap struct {
	amp     float64 // sqrt of normalized linear tap power
	delayNS float64
	// Oscillator parameters: phase offsets and angular Doppler rates, both
	// windows of one backing array per fader.
	phase []float64
	omega []float64 // rad/s
}

// twiddle holds exp(−j 2π f_m τ_i) for subcarrier m and tap i of one
// geometry — n subcarriers spacing Hz apart — laid out row-major by
// subcarrier: rows[m*taps+i]. It is read-only once built: every link of a
// Channel has the same tap delays and subcarriers, so they share one table,
// and a fader asked for another geometry builds a table of its own rather
// than rewrite the shared one.
type twiddle struct {
	n       int
	spacing float64
	rows    []complex128
}

// newTwiddle builds the table for taps at the given geometry. The entries
// are bit-identical to what cmplx.Exp produced in the direct evaluation
// (e^0 · (cos, sin) via math.Sincos), so the table changes no sampled value.
func newTwiddle(taps []fadeTap, n int, spacingHz float64) *twiddle {
	nt := len(taps)
	tw := &twiddle{n: n, spacing: spacingHz, rows: make([]complex128, n*nt)}
	mid := float64(n-1) / 2
	for m := 0; m < n; m++ {
		freq := (float64(m) - mid) * spacingHz
		for i := 0; i < nt; i++ {
			// exp(−j 2π f τ) phase rotation per tap.
			ph := -2 * math.Pi * freq * taps[i].delayNS * 1e-9
			s, c := math.Sincos(ph)
			tw.rows[m*nt+i] = complex(c, s)
		}
	}
	return tw
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
	f := &Fader{
		taps:  make([]fadeTap, 0, len(taps)),
		norm:  1 / math.Sqrt(float64(oscillators)),
		waveN: oscillators,
	}
	osc := make([]float64, 2*len(taps)*oscillators)
	var reach float64
	for _, tp := range taps {
		ft := fadeTap{
			amp:     math.Sqrt(DBToLinear(tp.PowerDB) / total),
			delayNS: tp.DelayNS,
			phase:   osc[:oscillators:oscillators],
			omega:   osc[oscillators : 2*oscillators : 2*oscillators],
		}
		osc = osc[2*oscillators:]
		for n := 0; n < oscillators; n++ {
			// Arrival angles uniform on the circle give the classic Jakes
			// Doppler spectrum; random initial phases decorrelate taps.
			alpha := rnd.Float64() * 2 * math.Pi
			ft.phase[n] = rnd.Float64() * 2 * math.Pi
			ft.omega[n] = 2 * math.Pi * dopplerHz * math.Cos(alpha)
		}
		f.taps = append(f.taps, ft)
		reach += ft.amp * f.norm * float64(oscillators)
	}
	f.ceilingDB = LinearToDB(reach * reach)
	return f
}

// Prime readies the twiddle table and scratch storage for the given
// subcarrier count and spacing, so even the first GainsDB sample is
// allocation-free. A table the fader already holds for that geometry — the
// one its Channel shares among all its links — is kept; sampling with a
// different geometry later just builds the fader a table of its own.
func (f *Fader) Prime(subcarriers int, spacingHz float64) {
	if subcarriers <= 0 {
		return
	}
	f.fit(subcarriers, spacingHz)
	f.tapScratch()
}

// fit makes the fader's twiddle table match the geometry, building a new
// one when the current table, perhaps shared, is for another.
func (f *Fader) fit(n int, spacingHz float64) {
	if f.twid == nil || f.twid.n != n || f.twid.spacing != spacingHz {
		f.twid = newTwiddle(f.taps, n, spacingHz)
	}
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
	f.fit(n, spacingHz)
	tapGains := f.tapScratch()
	f.tapGainsInto(tSeconds, tapGains)
	nt := len(f.taps)
	for m := 0; m < n; m++ {
		var h complex128
		row := f.twid.rows[m*nt : (m+1)*nt]
		for i, g := range tapGains {
			h += g * row[i]
		}
		p := real(h)*real(h) + imag(h)*imag(h)
		dst[m] = LinearToDB(p)
	}
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
