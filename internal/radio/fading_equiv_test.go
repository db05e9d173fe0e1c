package radio

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"
)

// gainsDBDirect re-evaluates the pre-optimization per-sample formula — a
// fresh tap-gain slice and one cmplx.Exp per (tap × subcarrier) — as the
// golden reference for the twiddle-table path.
func gainsDBDirect(f *Fader, tSeconds, spacingHz float64, dst []float64) {
	tapGains := freshTapGains(f, tSeconds)
	n := len(dst)
	mid := float64(n-1) / 2
	for m := 0; m < n; m++ {
		freq := (float64(m) - mid) * spacingHz
		var h complex128
		for i := range tapGains {
			ph := -2 * math.Pi * freq * f.taps[i].delayNS * 1e-9
			h += tapGains[i] * cmplx.Exp(complex(0, ph))
		}
		p := real(h)*real(h) + imag(h)*imag(h)
		dst[m] = LinearToDB(p)
	}
}

// freshTapGains evaluates the tap gains into a slice of their own, away from
// the fader's scratch buffer.
func freshTapGains(f *Fader, tSeconds float64) []complex128 {
	out := make([]complex128, len(f.taps))
	f.tapGainsInto(tSeconds, out)
	return out
}

// The twiddle-table GainsDB must reproduce the direct cmplx.Exp evaluation
// bit-for-bit: same Sincos arguments, same accumulation order.
func TestGainsDBTwiddleExact(t *testing.T) {
	rnd := rand.New(rand.NewPCG(3, 7))
	f := NewFader(nil, 8, 22, 1.5, rnd)
	got := make([]float64, 56)
	want := make([]float64, 56)
	for i := 0; i < 500; i++ {
		ts := float64(i) * 137e-6
		f.GainsDB(ts, 312.5e3, got)
		gainsDBDirect(f, ts, 312.5e3, want)
		for m := range got {
			if got[m] != want[m] {
				t.Fatalf("t=%v subcarrier %d: table %v != direct %v", ts, m, got[m], want[m])
			}
		}
	}
}

// Switching subcarrier geometry mid-stream must transparently rebuild the
// twiddle table.
func TestGainsDBGeometryChange(t *testing.T) {
	rnd := rand.New(rand.NewPCG(5, 9))
	f := NewFader(nil, 8, 22, 1.5, rnd)
	for _, n := range []int{56, 64, 56, 114} {
		got := make([]float64, n)
		want := make([]float64, n)
		f.GainsDB(0.042, 312.5e3, got)
		gainsDBDirect(f, 0.042, 312.5e3, want)
		for m := range got {
			if got[m] != want[m] {
				t.Fatalf("n=%d subcarrier %d: table %v != direct %v", n, m, got[m], want[m])
			}
		}
	}
}

// FlatGainDB must match the power sum over freshly computed tap gains.
func TestFlatGainDBScratchExact(t *testing.T) {
	rnd := rand.New(rand.NewPCG(11, 13))
	f := NewFader(nil, 8, 22, 1.5, rnd)
	for i := 0; i < 500; i++ {
		ts := float64(i) * 211e-6
		got := f.FlatGainDB(ts)
		var p float64
		for _, g := range freshTapGains(f, ts) {
			p += real(g)*real(g) + imag(g)*imag(g)
		}
		if want := LinearToDB(p); got != want {
			t.Fatalf("t=%v: FlatGainDB %v != direct %v", ts, got, want)
		}
	}
}

// The steady-state fading sample path must not allocate.
func TestFadingZeroAlloc(t *testing.T) {
	rnd := rand.New(rand.NewPCG(17, 19))
	f := NewFader(nil, 8, 22, 1.5, rnd)
	f.Prime(56, 312.5e3)
	dst := make([]float64, 56)
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		i++
		f.GainsDB(float64(i)*1e-4, 312.5e3, dst)
	}); avg != 0 {
		t.Errorf("GainsDB allocates %.1f times per sample, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		i++
		_ = f.FlatGainDB(float64(i) * 1e-4)
	}); avg != 0 {
		t.Errorf("FlatGainDB allocates %.1f times per sample, want 0", avg)
	}
}
