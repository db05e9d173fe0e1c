package csi

import (
	"math"
	"testing"
	"testing/quick"

	"wgtt/internal/mobility"
	"wgtt/internal/phy"
	"wgtt/internal/radio"
	"wgtt/internal/sim"
)

func flatSNR(db float64) []float64 {
	s := make([]float64, Subcarriers)
	for i := range s {
		s[i] = db
	}
	return s
}

func TestESNRFlatChannelIdentity(t *testing.T) {
	// On a flat channel, ESNR equals the per-subcarrier SNR.
	for _, db := range []float64{5, 10, 15, 20} {
		got := ESNRdB(flatSNR(db), phy.QAM16)
		if math.Abs(got-db) > 0.05 {
			t.Errorf("flat-channel ESNR(%v dB) = %v", db, got)
		}
	}
}

func TestESNRPenalizesSelectiveFades(t *testing.T) {
	// Same mean SNR, but one channel has a deep fade on a quarter of the
	// band: its ESNR must be lower.
	faded := flatSNR(18)
	for i := 0; i < Subcarriers/4; i++ {
		faded[i] = 2
	}
	// Raise the rest to keep the arithmetic mean at 18 dB.
	comp := (18.0*float64(Subcarriers) - 2*float64(Subcarriers/4)) / float64(Subcarriers-Subcarriers/4)
	for i := Subcarriers / 4; i < Subcarriers; i++ {
		faded[i] = comp
	}
	esnrFaded := ESNRdB(faded, phy.QAM16)
	esnrFlat := ESNRdB(flatSNR(18), phy.QAM16)
	if esnrFaded >= esnrFlat-1 {
		t.Errorf("selective fade not penalized: faded=%v flat=%v", esnrFaded, esnrFlat)
	}
}

func TestESNREmpty(t *testing.T) {
	if !math.IsInf(ESNRdB(nil, phy.QPSK), -1) {
		t.Error("empty ESNR should be -inf")
	}
}

func TestESNRMonotoneInSNR(t *testing.T) {
	f := func(aq, bq uint8) bool {
		a := float64(aq)/8 - 5
		b := float64(bq)/8 - 5
		if a > b {
			a, b = b, a
		}
		return ESNRdB(flatSNR(a), phy.QAM16) <= ESNRdB(flatSNR(b), phy.QAM16)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeasureFromLink(t *testing.T) {
	ch := radio.NewChannel(radio.DefaultParams(), sim.NewRNG(11))
	ap := &radio.Endpoint{
		Name:         "ap1",
		Trace:        mobility.Stationary{At: mobility.Point{X: 20, Y: mobility.APSetback}},
		Antenna:      radio.NewLairdGD24BP(),
		BoresightRad: -math.Pi / 2,
		TxPowerDBm:   17,
	}
	car := &radio.Endpoint{
		Name:        "car1",
		Trace:       mobility.DriveBy(0, 0, 15),
		TxPowerDBm:  15,
		SpeedHintMS: mobility.MPH(15),
	}
	if err := ch.AddEndpoint(ap); err != nil {
		t.Fatal(err)
	}
	if err := ch.AddEndpoint(car); err != nil {
		t.Fatal(err)
	}
	link, err := ch.Link("ap1", "car1")
	if err != nil {
		t.Fatal(err)
	}
	at := sim.FromSeconds(2.98) // boresight
	snr := link.SNRInto(at, car, nil)
	if len(snr) != Subcarriers {
		t.Fatalf("link sample has %d subcarriers, want %d", len(snr), Subcarriers)
	}
	// ESNR near boresight should be solidly positive.
	if e := ESNRdB(snr, DefaultESNRModulation); e < 5 {
		t.Errorf("boresight ESNR = %v dB", e)
	}
}

// ESNR's raison d'être (paper §3.1.1): on frequency-selective channels it
// predicts delivery better than mean SNR. Construct paired channels where
// the mean says "equal" but ESNR must disagree, and check ESNR ranks the
// truly better channel first.
func TestESNRBeatsMeanSNRRanking(t *testing.T) {
	flat := flatSNR(14)
	selective := flatSNR(14)
	for i := 0; i < 10; i++ {
		selective[i] = 0
	}
	lift := (14.0*56 - 0*10) / 46
	for i := 10; i < 56; i++ {
		selective[i] = lift
	}
	if ESNRdB(selective, phy.QAM16) >= ESNRdB(flat, phy.QAM16) {
		t.Error("ESNR failed to rank flat channel above equal-mean selective channel")
	}
}
