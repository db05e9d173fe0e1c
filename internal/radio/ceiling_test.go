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

// ceilingSlackDB is the ESNR-over-best-subcarrier tolerance the medium's
// decide-before-sample rule allows (mac.ceilingSlackDB).
const ceilingSlackDB = 0.05

// randomLink builds a one-link channel with random geometry, power, losses
// and options: fading on or off, an obstruction hook or none, passing
// disturbers or none.
func randomLink(t *testing.T, rnd *rand.Rand, seed uint64) (*Link, *Endpoint) {
	t.Helper()
	params := DefaultParams()
	params.NoFading = rnd.IntN(4) == 0
	if rnd.IntN(2) == 0 {
		block := rnd.Float64() * 80
		params.Obstruction = func(a, b mobility.Point) float64 {
			if a.Distance(b) > 30 {
				return block
			}
			return 0
		}
	}
	ch := NewChannel(params, sim.NewRNG(seed))
	ap := &Endpoint{
		Name:         "ap",
		Trace:        mobility.Stationary{At: mobility.Point{X: rnd.Float64() * 200, Y: mobility.APSetback}},
		Antenna:      NewLairdGD24BP(),
		BoresightRad: -math.Pi / 2,
		TxPowerDBm:   5 + rnd.Float64()*25,
		ExtraLossDB:  rnd.Float64() * 40,
	}
	speed := mobility.MPH(5 + rnd.Float64()*40)
	car := &Endpoint{
		Name:        "car",
		Trace:       mobility.DriveBy(rnd.Float64()*100-50, 0, speed),
		TxPowerDBm:  5 + rnd.Float64()*25,
		SpeedHintMS: speed,
	}
	for _, e := range []*Endpoint{ap, car} {
		if err := ch.AddEndpoint(e); err != nil {
			t.Fatal(err)
		}
	}
	for i := rnd.IntN(3); i > 0; i-- {
		ch.AddDisturber(mobility.DriveBy(rnd.Float64()*60-30, 0, speed), speed)
	}
	return mustLink(t, ch, "ap", "car"), car
}

// The medium settles a loss draw against BudgetDB + CeilingDB before it
// samples, which is exact only if no subcarrier ever exceeds that bound and
// no ESNR exceeds the best subcarrier by more than ceilingSlackDB. Over
// random links — fading on and off, shadowing, obstructions, disturbers —
// random times in both directions and every modulation, both must hold.
func TestSNRNeverExceedsCeiling(t *testing.T) {
	rnd := rand.New(rand.NewPCG(41, 43))
	var snr []float64
	for li := range 60 {
		l, car := randomLink(t, rnd, uint64(li))
		if l.params.NoFading && l.CeilingDB() != 0 {
			t.Fatalf("link %d: a link without fading has a %v dB ceiling", li, l.CeilingDB())
		}
		for range 200 {
			at := sim.FromSeconds(rnd.Float64() * 30)
			from := car
			if rnd.IntN(2) == 0 {
				from = l.A
			}
			bound := l.BudgetDB(at, from.TxPowerDBm) + l.CeilingDB()
			snr = l.SNRInto(at, from, snr)
			best := math.Inf(-1)
			for m, s := range snr {
				if s > bound {
					t.Fatalf("link %d at %v: subcarrier %d reads %v dB over the %v dB ceiling", li, at, m, s, bound)
				}
				best = max(best, s)
			}
			for mod := phy.BPSK; mod <= phy.QAM64; mod++ {
				if e := csi.ESNRdB(snr, mod); e > best+ceilingSlackDB {
					t.Fatalf("link %d at %v, %v: ESNR %v dB over the best subcarrier's %v dB", li, at, mod, e, best)
				}
			}
		}
	}
}

// Every link of a channel combines over one twiddle table, and a fader asked
// for another geometry builds its own: the shared table — and so every other
// link's samples — stays as it was.
func TestTwiddleSharedPerChannel(t *testing.T) {
	ch := testChannel(t)
	if err := ch.AddEndpoint(&Endpoint{Name: "car2", Trace: mobility.DriveBy(5, 0, 10), TxPowerDBm: 15, SpeedHintMS: 10}); err != nil {
		t.Fatal(err)
	}
	l1, l2 := mustLink(t, ch, "ap1", "car1"), mustLink(t, ch, "ap1", "car2")
	if l1.fader.twid != l2.fader.twid {
		t.Fatal("two links of one channel built two twiddle tables")
	}
	shared := l1.fader.twid
	before := append([]complex128(nil), shared.rows...)

	odd := make([]float64, 64)
	l1.fader.GainsDB(0.5, 200e3, odd)
	if l1.fader.twid == shared || l2.fader.twid != shared {
		t.Fatal("a geometry change replaced the shared table instead of building its own")
	}
	for i, v := range shared.rows {
		if v != before[i] {
			t.Fatalf("a geometry change rewrote shared twiddle entry %d", i)
		}
	}
	got := make([]float64, 56)
	want := make([]float64, 56)
	l2.fader.GainsDB(0.5, ch.params.SubcarrierSpacingHz, got)
	gainsDBDirect(l2.fader, 0.5, ch.params.SubcarrierSpacingHz, want)
	for m := range got {
		if got[m] != want[m] {
			t.Fatalf("subcarrier %d: %v after another link's geometry change, direct %v", m, got[m], want[m])
		}
	}
}

// A fader is three allocations — itself, its taps, and one backing array
// for every tap's oscillator phases and rates — and no tap's window reaches
// into the next tap's.
func TestFaderOneBackingArray(t *testing.T) {
	rnd := rand.New(rand.NewPCG(1, 2))
	if avg := testing.AllocsPerRun(50, func() { NewFader(nil, 8, 22, 1.5, rnd) }); avg != 3 {
		t.Errorf("NewFader allocates %.0f times, want 3", avg)
	}
	for i, tp := range NewFader(nil, 8, 22, 1.5, rnd).taps {
		if cap(tp.phase) != 8 || cap(tp.omega) != 8 {
			t.Errorf("tap %d: phase and omega windows have capacity %d and %d, want 8", i, cap(tp.phase), cap(tp.omega))
		}
	}
}
