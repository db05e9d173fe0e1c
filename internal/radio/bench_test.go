package radio

import (
	"math"
	"math/rand/v2"
	"testing"

	"wgtt/internal/csi"
	"wgtt/internal/mobility"
	"wgtt/internal/phy"
	"wgtt/internal/sim"
)

func benchFader() *Fader {
	rnd := rand.New(rand.NewPCG(1, 2))
	return NewFader(nil, 8, 22, 1.5, rnd)
}

// BenchmarkFaderFlatGainDB is the wideband RSSI sample (baseline roaming,
// capture arbitration).
func BenchmarkFaderFlatGainDB(b *testing.B) {
	f := benchFader()
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += f.FlatGainDB(float64(i) * 1e-4)
	}
	_ = sink
}

// BenchmarkCapture is one capture's loss decision as the medium makes it:
// the link budget, then either the fading ceiling settles the sync draw
// (decided: a dark AP→AP capture) or the 56-subcarrier sample and its ESNR
// are needed (sampled: a client in its AP's cell).
func BenchmarkCapture(b *testing.B) {
	ch := NewChannel(DefaultParams(), sim.NewRNG(7))
	near := &Endpoint{Name: "near", Trace: mobility.Stationary{At: mobility.Point{X: 20, Y: mobility.APSetback}},
		Antenna: NewLairdGD24BP(), BoresightRad: -math.Pi / 2, TxPowerDBm: 17, ExtraLossDB: 28}
	far := &Endpoint{Name: "far", Trace: mobility.Stationary{At: mobility.Point{X: 80, Y: mobility.APSetback}},
		Antenna: NewLairdGD24BP(), BoresightRad: -math.Pi / 2, TxPowerDBm: 17, ExtraLossDB: 28}
	car := &Endpoint{Name: "car", Trace: mobility.DriveBy(20, 0, 0), TxPowerDBm: 15, SpeedHintMS: mobility.MPH(15)}
	for _, e := range []*Endpoint{near, far, car} {
		if err := ch.AddEndpoint(e); err != nil {
			b.Fatal(err)
		}
	}
	mod := phy.Lookup(4).Modulation
	for _, bc := range []struct {
		name    string
		a, z    string
		from    *Endpoint
		decided bool
	}{{"decided", "near", "far", near, true}, {"sampled", "near", "car", car, false}} {
		l, err := ch.Link(bc.a, bc.z)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			snr := make([]float64, 0, 56)
			var sink float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				at := sim.Time(i) * sim.Millisecond
				budget := l.BudgetDB(at, bc.from.TxPowerDBm)
				if p := phy.SyncFailureProb(budget + l.CeilingDB()); p > 0.999 {
					sink += p
					continue
				}
				snr = l.SampleInto(at, budget, snr)
				sink += phy.SyncFailureProb(csi.ESNRdB(snr, mod))
			}
			_ = sink
			if sampled := ch.Samples != 0; sampled == bc.decided {
				b.Fatalf("%s capture sampled %d times", bc.name, ch.Samples)
			}
			ch.Samples = 0
		})
	}
}
