package phy

import (
	"math"
	"testing"
	"testing/quick"

	"wgtt/internal/sim"
)

func TestModulationBits(t *testing.T) {
	cases := map[Modulation]int{BPSK: 1, QPSK: 2, QAM16: 4, QAM64: 6, Modulation(9): 0}
	for m, want := range cases {
		if got := m.BitsPerSymbol(); got != want {
			t.Errorf("%v bits = %d, want %d", m, got, want)
		}
	}
}

func TestModulationString(t *testing.T) {
	if BPSK.String() != "BPSK" || QAM64.String() != "64-QAM" {
		t.Error("modulation names wrong")
	}
}

func TestBERMonotone(t *testing.T) {
	for _, m := range []Modulation{BPSK, QPSK, QAM16, QAM64} {
		prev := m.BER(0.001)
		for snr := 0.01; snr < 1e6; snr *= 1.3 {
			b := m.BER(snr)
			if b > prev+1e-18 {
				t.Fatalf("%v BER not monotone at snr=%v", m, snr)
			}
			prev = b
		}
	}
}

func TestBEROrderingAcrossModulations(t *testing.T) {
	// In the approximations' valid regime (≳6 dB), denser constellations
	// have (weakly) higher BER. Below that the closed-form prefactors
	// saturate differently and ordering is not meaningful.
	for snr := 4.0; snr < 1e5; snr *= 2 {
		if BPSK.BER(snr) > QPSK.BER(snr)+1e-18 ||
			QPSK.BER(snr) > QAM16.BER(snr)+1e-18 ||
			QAM16.BER(snr) > QAM64.BER(snr)+1e-18 {
			t.Fatalf("BER ordering violated at snr=%v", snr)
		}
	}
}

func TestBERKnownValues(t *testing.T) {
	// BPSK at 9.6 dB (γ ≈ 9.12) gives BER ≈ 1e-5.
	if b := BPSK.BER(9.12); b < 0.6e-5 || b > 1.5e-5 {
		t.Errorf("BPSK BER at 9.6 dB = %v, want ≈ 1e-5", b)
	}
	if b := BPSK.BER(0); b != 0.5 {
		t.Errorf("BER at zero SNR = %v, want 0.5", b)
	}
	if b := BPSK.BER(-1); b != 0.5 {
		t.Errorf("BER at negative SNR = %v, want 0.5", b)
	}
	if b := Modulation(42).BER(10); b != 0.5 {
		t.Errorf("unknown modulation BER = %v, want 0.5", b)
	}
}

func TestInvBERRoundTrip(t *testing.T) {
	for _, m := range []Modulation{BPSK, QPSK, QAM16, QAM64} {
		for _, ber := range []float64{0.1, 1e-2, 1e-4, 1e-8} {
			snr := m.InvBER(ber)
			got := m.BER(snr)
			if math.Abs(math.Log10(got)-math.Log10(ber)) > 0.01 {
				t.Errorf("%v InvBER(%v) = %v, BER back = %v", m, ber, snr, got)
			}
		}
	}
	if QPSK.InvBER(0.5) != 0 {
		t.Error("InvBER(0.5) should be 0")
	}
	// 16-QAM's approximation saturates at 0.375; anything at or above that
	// maps to zero SNR.
	if QAM16.InvBER(0.4) != 0 {
		t.Error("InvBER above saturation should be 0")
	}
	if snr := BPSK.InvBER(0.4); math.Abs(BPSK.BER(snr)-0.4) > 1e-6 {
		t.Errorf("BPSK InvBER(0.4) round trip = %v", BPSK.BER(snr))
	}
	if snr := QPSK.InvBER(0); math.IsInf(snr, 1) || math.IsNaN(snr) {
		t.Error("InvBER(0) must stay finite")
	}
}

func TestMCSTable(t *testing.T) {
	all := table
	if len(all) != NumMCS {
		t.Fatalf("table has %d entries", len(all))
	}
	for i, info := range all {
		if int(info.Index) != i {
			t.Errorf("entry %d has index %d", i, info.Index)
		}
		if i > 0 {
			if info.DataRateMbps <= all[i-1].DataRateMbps {
				t.Errorf("rates not increasing at MCS%d", i)
			}
			if info.Threshold50 <= all[i-1].Threshold50 {
				t.Errorf("thresholds not increasing at MCS%d", i)
			}
		}
	}
	// HT20 SGI endpoints.
	if all[0].DataRateMbps != 7.2 || all[7].DataRateMbps != 72.2 {
		t.Errorf("rate endpoints = %v, %v", all[0].DataRateMbps, all[7].DataRateMbps)
	}
	if MCS(3).DataRateMbps() != 28.9 {
		t.Error("DataRateMbps shorthand wrong")
	}
}

func TestLookupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Lookup(-1) did not panic")
		}
	}()
	Lookup(-1)
}

func TestMCSString(t *testing.T) {
	if MCS(7).String() != "MCS7(72.2 Mb/s)" {
		t.Errorf("MCS7 string = %q", MCS(7).String())
	}
	if MCS(-3).String() != "MCS?-3" {
		t.Errorf("invalid MCS string = %q", MCS(-3).String())
	}
}

func TestPERShape(t *testing.T) {
	// At the anchor point: 1500 bytes, ESNR = threshold ⇒ PER = 0.5.
	for i := 0; i < NumMCS; i++ {
		m := MCS(i)
		th := Lookup(m).Threshold50
		// The sync-failure floor nudges the anchor up slightly (most for
		// MCS0, whose threshold sits nearest the sync region).
		if p := PER(m, th, 1500); p < 0.5 || p > 0.56 {
			t.Errorf("%v PER at threshold = %v, want ≈ 0.5", m, p)
		}
		// Well above threshold: nearly lossless. Well below: lost.
		if p := PER(m, th+8, 1500); p > 0.02 {
			t.Errorf("%v PER at +8 dB = %v", m, p)
		}
		if p := PER(m, th-8, 1500); p < 0.99 {
			t.Errorf("%v PER at −8 dB = %v", m, p)
		}
	}
}

func TestPERLengthScaling(t *testing.T) {
	m := MCS(4)
	th := Lookup(m).Threshold50
	short := PER(m, th+2, 100)
	long := PER(m, th+2, 3000)
	if short >= long {
		t.Errorf("short frame PER %v not < long frame PER %v", short, long)
	}
	if p := PER(m, th, 0); p != 0 {
		t.Errorf("zero-length PER = %v", p)
	}
}

func TestPERMonotoneInESNR(t *testing.T) {
	f := func(mq uint8, e1q, e2q uint8) bool {
		m := MCS(mq % NumMCS)
		e1 := float64(e1q)/4 - 10
		e2 := float64(e2q)/4 - 10
		if e1 > e2 {
			e1, e2 = e2, e1
		}
		return PER(m, e1, 1500) >= PER(m, e2, 1500)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDataDuration(t *testing.T) {
	// 1500 bytes at MCS7 (72.2 Mb/s): 12022 bits / 260 bits-per-symbol
	// ≈ 46.3 ⇒ 47 symbols ⇒ 169.2 µs.
	d := DataDuration(7, 1500)
	if d < 160*sim.Microsecond || d > 180*sim.Microsecond {
		t.Errorf("DataDuration(MCS7, 1500B) = %v", d)
	}
	if DataDuration(7, 0) != 0 {
		t.Error("zero bytes should take zero time")
	}
	// Lower MCS takes longer.
	if DataDuration(0, 1500) <= DataDuration(7, 1500) {
		t.Error("MCS0 not slower than MCS7")
	}
}

func TestAMPDUDuration(t *testing.T) {
	one := AMPDUDuration(7, []int{1500})
	ten := AMPDUDuration(7, []int{1500, 1500, 1500, 1500, 1500, 1500, 1500, 1500, 1500, 1500})
	// Aggregation amortizes the preamble: 10 frames take far less than 10×.
	if ten > 10*one-8*HTPreamble {
		t.Errorf("aggregation saves too little: 1=%v 10=%v", one, ten)
	}
	if one <= HTPreamble {
		t.Error("A-MPDU shorter than its preamble")
	}
}

func TestControlDurations(t *testing.T) {
	ba := BlockAckDuration()
	if ba < 24*sim.Microsecond || ba > 40*sim.Microsecond {
		t.Errorf("BlockAckDuration = %v", ba)
	}
	if AckDuration() >= ba {
		t.Error("legacy ACK should be shorter than Block ACK")
	}
}
