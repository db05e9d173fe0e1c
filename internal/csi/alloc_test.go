package csi

import (
	"testing"

	"wgtt/internal/mobility"
	"wgtt/internal/packet"
	"wgtt/internal/radio"
	"wgtt/internal/sim"
)

func allocTestLink(t *testing.T, seed uint64) (*radio.Link, *radio.Endpoint) {
	t.Helper()
	ch := radio.NewChannel(radio.DefaultParams(), sim.NewRNG(seed))
	ap := &radio.Endpoint{
		Name:       "ap1",
		Trace:      mobility.Stationary{At: mobility.Point{X: 20, Y: mobility.APSetback}},
		TxPowerDBm: 17,
	}
	car := &radio.Endpoint{
		Name:        "car1",
		Trace:       mobility.DriveBy(0, 0, 15),
		TxPowerDBm:  15,
		SpeedHintMS: 15,
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
	return link, car
}

// The steady-state measurement pipeline — link sample into a recycled
// buffer, ESNR over it, and the wire-report unpack on the controller side —
// must not allocate.
func TestCSIPipelineZeroAlloc(t *testing.T) {
	link, car := allocTestLink(t, 11)

	snr := make([]float64, 0, Subcarriers)
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		i++
		snr = link.SNRInto(sim.Time(i)*sim.Millisecond, car, snr)
		_ = ESNRdB(snr, DefaultESNRModulation)
	}); avg != 0 {
		t.Errorf("SNRInto+ESNRdB allocates %.1f times per sample, want 0", avg)
	}

	wire := &packet.CSIReport{}
	wire.QuantizeSNR(snr)
	var scratch []float64
	if avg := testing.AllocsPerRun(200, func() {
		scratch = wire.SNRdBInto(scratch)
		_ = ESNRdB(scratch, DefaultESNRModulation)
	}); avg != 0 {
		t.Errorf("SNRdBInto+ESNRdB allocates %.1f times per report, want 0", avg)
	}
}
