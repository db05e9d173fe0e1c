package radio

import (
	"math"
	"testing"
	"testing/quick"

	"wgtt/internal/mobility"
	"wgtt/internal/sim"
)

func TestDBConversions(t *testing.T) {
	if got := DBToLinear(10); math.Abs(got-10) > 1e-12 {
		t.Errorf("DBToLinear(10) = %v", got)
	}
	if got := LinearToDB(100); math.Abs(got-20) > 1e-12 {
		t.Errorf("LinearToDB(100) = %v", got)
	}
	if !math.IsInf(LinearToDB(0), -1) {
		t.Error("LinearToDB(0) should be -inf")
	}
	// Round trip property.
	f := func(q uint16) bool {
		db := float64(q)/100 - 300
		return math.Abs(LinearToDB(DBToLinear(db))-db) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWavelength(t *testing.T) {
	// ~12.2 cm at 2.462 GHz, the paper's "12 cm at 2.4 GHz".
	if wl := Wavelength(2.462e9); wl < 0.12 || wl > 0.125 {
		t.Errorf("wavelength = %v m", wl)
	}
}

func TestFreeSpacePathLoss(t *testing.T) {
	// Known value: FSPL at 1 m, 2.4 GHz ≈ 40.05 dB.
	if pl := FreeSpacePathLossDB(1, 2.4e9); math.Abs(pl-40.05) > 0.1 {
		t.Errorf("FSPL(1m, 2.4GHz) = %v dB", pl)
	}
	// Doubling distance adds 6.02 dB.
	d1 := FreeSpacePathLossDB(10, 2.4e9)
	d2 := FreeSpacePathLossDB(20, 2.4e9)
	if math.Abs(d2-d1-6.02) > 0.01 {
		t.Errorf("doubling distance added %v dB", d2-d1)
	}
	// Near-field clamp keeps the loss finite.
	if pl := FreeSpacePathLossDB(0, 2.4e9); math.IsInf(pl, 0) || math.IsNaN(pl) {
		t.Error("zero distance must be clamped")
	}
}

func TestThermalNoise(t *testing.T) {
	// 20 MHz, 0 dB NF: −174 + 73 = −101 dBm.
	if n := ThermalNoiseDBm(20e6, 0); math.Abs(n+100.99) > 0.05 {
		t.Errorf("noise floor = %v dBm", n)
	}
}

func TestParabolicPattern(t *testing.T) {
	a := NewLairdGD24BP()
	if g := a.GainDB(0); g != 14 {
		t.Errorf("boresight gain = %v", g)
	}
	// −3 dB at half the beamwidth.
	half := a.BeamwidthDeg / 2 * math.Pi / 180
	if g := a.GainDB(half); math.Abs(g-11) > 0.01 {
		t.Errorf("gain at half-beamwidth = %v, want 11", g)
	}
	// Symmetric.
	if a.GainDB(0.3) != a.GainDB(-0.3) {
		t.Error("pattern not symmetric")
	}
	// Side-lobe floor at large angles.
	if g := a.GainDB(math.Pi); g != a.PeakDBi-a.SideLobeDB {
		t.Errorf("back-lobe gain = %v, want %v", g, a.PeakDBi-a.SideLobeDB)
	}
	// Monotone non-increasing with angle in [0, π].
	prev := a.GainDB(0)
	for th := 0.01; th <= math.Pi; th += 0.01 {
		g := a.GainDB(th)
		if g > prev+1e-9 {
			t.Fatalf("gain increased with angle at %v", th)
		}
		prev = g
	}
}

func TestIsotropicAndOmni(t *testing.T) {
	if (Isotropic{}).GainDB(1.2) != 0 {
		t.Error("isotropic gain != 0")
	}
	if (Omni{PeakDBi: 3}).GainDB(2.2) != 3 {
		t.Error("omni gain != 3")
	}
}

func newTestFader(doppler float64, seed uint64) *Fader {
	rng := sim.NewRNG(seed)
	return NewFader(nil, 8, doppler, 1.5, rng.Stream("test"))
}

func TestFaderUnitMeanPower(t *testing.T) {
	f := newTestFader(20, 1)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += DBToLinear(f.FlatGainDB(float64(i) * 0.003))
	}
	mean := sum / n
	if mean < 0.8 || mean > 1.25 {
		t.Errorf("mean fading power = %v, want ≈ 1", mean)
	}
}

func TestFaderTemporalCorrelation(t *testing.T) {
	// At vehicular Doppler (~22 Hz at 25 mph), gains 100 µs apart are nearly
	// identical while gains 100 ms apart decorrelate.
	f := newTestFader(22, 2)
	var closeDiff, farDiff float64
	const n = 500
	for i := 0; i < n; i++ {
		t0 := float64(i) * 0.050
		g0 := f.FlatGainDB(t0)
		closeDiff += math.Abs(f.FlatGainDB(t0+100e-6) - g0)
		farDiff += math.Abs(f.FlatGainDB(t0+0.100) - g0)
	}
	if closeDiff/n > 0.5 {
		t.Errorf("mean gain change over 100µs = %v dB, want ≈ 0", closeDiff/n)
	}
	if farDiff/n < 1.5 {
		t.Errorf("mean gain change over 100ms = %v dB, want noticeable", farDiff/n)
	}
}

func TestFaderFrequencySelectivity(t *testing.T) {
	// With a multi-tap profile, subcarriers at opposite band edges should
	// see meaningfully different gains at least some of the time.
	f := newTestFader(10, 3)
	gains := make([]float64, 56)
	var maxSpread float64
	for i := 0; i < 200; i++ {
		f.GainsDB(float64(i)*0.01, 312.5e3, gains)
		lo, hi := gains[0], gains[0]
		for _, g := range gains {
			lo = math.Min(lo, g)
			hi = math.Max(hi, g)
		}
		maxSpread = math.Max(maxSpread, hi-lo)
	}
	if maxSpread < 5 {
		t.Errorf("max subcarrier spread = %v dB; channel not frequency-selective", maxSpread)
	}
}

func TestFaderFlatProfileIsFlat(t *testing.T) {
	rng := sim.NewRNG(9)
	f := NewFader([]Tap{{DelayNS: 0, PowerDB: 0}}, 8, 10, 1.5, rng.Stream("flat"))
	gains := make([]float64, 56)
	f.GainsDB(1.0, 312.5e3, gains)
	for _, g := range gains[1:] {
		if math.Abs(g-gains[0]) > 1e-9 {
			t.Fatal("single-tap profile should be frequency-flat")
		}
	}
}

func TestFaderDeterminism(t *testing.T) {
	a := newTestFader(22, 7)
	b := newTestFader(22, 7)
	for i := 0; i < 50; i++ {
		ts := float64(i) * 0.013
		if a.FlatGainDB(ts) != b.FlatGainDB(ts) {
			t.Fatal("same seed produced different fading")
		}
	}
	// Pure function of time: out-of-order sampling is consistent.
	g1 := a.FlatGainDB(0.5)
	_ = a.FlatGainDB(2.0)
	if a.FlatGainDB(0.5) != g1 {
		t.Error("fading not a pure function of time")
	}
}

func TestDopplerAndCoherence(t *testing.T) {
	// 25 mph ≈ 11.18 m/s at 2.462 GHz ⇒ f_d = 11.18/0.1218 ≈ 91.8 Hz, a
	// Clarke coherence time (0.423/f_d) of a few ms — the paper's ~2–3 ms.
	fd := DopplerHz(mobility.MPH(25), 2.462e9)
	if fd < 85 || fd > 95 {
		t.Errorf("Doppler at 25 mph = %v Hz", fd)
	}
}

func testChannel(t *testing.T) *Channel {
	t.Helper()
	ch := NewChannel(DefaultParams(), sim.NewRNG(42))
	ap := &Endpoint{
		Name:         "ap1",
		Trace:        mobility.Stationary{At: mobility.Point{X: 20, Y: mobility.APSetback}},
		Antenna:      NewLairdGD24BP(),
		BoresightRad: -math.Pi / 2, // facing the road
		TxPowerDBm:   17,
		ExtraLossDB:  28,
	}
	client := &Endpoint{
		Name:        "car1",
		Trace:       mobility.DriveBy(0, 0, 15),
		TxPowerDBm:  15,
		SpeedHintMS: mobility.MPH(15),
	}
	if err := ch.AddEndpoint(ap); err != nil {
		t.Fatal(err)
	}
	if err := ch.AddEndpoint(client); err != nil {
		t.Fatal(err)
	}
	return ch
}

func mustLink(t *testing.T, ch *Channel, a, b string) *Link {
	t.Helper()
	l, err := ch.Link(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestChannelLinkBudget(t *testing.T) {
	ch := testChannel(t)
	l := mustLink(t, ch, "ap1", "car1")
	// The car reaches X=20 (boresight) at t = 20 / 6.7056 ≈ 2.98 s.
	atBoresight := sim.FromSeconds(20 / mobility.MPH(15))
	g := l.PathGainDB(atBoresight)
	// Budget: +14 (AP ant) + 0 (client) − PL(12 m) − 28 extra.
	// PL(12m) = 40.3 + 27 log10(12) ≈ 69.5 dB ⇒ ≈ −83.5 dB.
	if g < -90 || g > -75 {
		t.Errorf("boresight path gain = %v dB", g)
	}
	// Mean downlink SNR at boresight ≈ 17 + g + 95 ≈ 28 dB (±fading).
	snr := l.RSSIdBm(atBoresight, 17) - noiseFloorDBm
	if snr < 10 || snr > 45 {
		t.Errorf("boresight SNR = %v dB", snr)
	}
	// Far away (car at start, 23.3 m off-boresight), SNR is much worse.
	far := l.RSSIdBm(0, 17) - noiseFloorDBm
	if far > snr-8 {
		t.Errorf("SNR off-cell (%v) not clearly below boresight (%v)", far, snr)
	}
}

func TestChannelSNRSnapshot(t *testing.T) {
	ch := testChannel(t)
	l := mustLink(t, ch, "ap1", "car1")
	snr := l.SNRInto(sim.FromSeconds(2.98), ch.endpoints["car1"], nil)
	if len(snr) != 56 {
		t.Fatalf("snapshot has %d subcarriers, want 56", len(snr))
	}
	// Uplink is 2 dB below downlink on average (15 vs 17 dBm).
	at := sim.FromSeconds(2.98)
	down := l.SampleInto(at, l.BudgetDB(at, 17), nil)
	for i := range snr {
		if math.Abs((down[i]-snr[i])-2) > 1e-9 {
			t.Fatal("uplink/downlink asymmetry should be exactly the power difference")
		}
	}
}

func TestChannelLinkCachingAndSymmetry(t *testing.T) {
	ch := testChannel(t)
	l1 := mustLink(t, ch, "ap1", "car1")
	l2 := mustLink(t, ch, "car1", "ap1")
	if l1 != l2 {
		t.Error("links not symmetric/cached")
	}
}

func TestChannelErrors(t *testing.T) {
	ch := testChannel(t)
	if _, err := ch.Link("ap1", "nope"); err == nil {
		t.Error("unknown endpoint accepted")
	}
	if _, err := ch.Link("nope", "ap1"); err == nil {
		t.Error("unknown endpoint accepted")
	}
	if _, err := ch.Link("ap1", "ap1"); err == nil {
		t.Error("self-link accepted")
	}
	if err := ch.AddEndpoint(&Endpoint{Name: "ap1", Trace: mobility.Stationary{}}); err == nil {
		t.Error("duplicate endpoint accepted")
	}
	if err := ch.AddEndpoint(&Endpoint{Trace: mobility.Stationary{}}); err == nil {
		t.Error("unnamed endpoint accepted")
	}
	if err := ch.AddEndpoint(&Endpoint{Name: "x"}); err == nil {
		t.Error("traceless endpoint accepted")
	}
}

func TestDisturberAddsLoss(t *testing.T) {
	params := DefaultParams()
	mkch := func(withDisturber bool) *Link {
		ch := NewChannel(params, sim.NewRNG(5))
		ap := &Endpoint{
			Name:         "ap1",
			Trace:        mobility.Stationary{At: mobility.Point{X: 20, Y: mobility.APSetback}},
			Antenna:      NewLairdGD24BP(),
			BoresightRad: -math.Pi / 2,
			TxPowerDBm:   17,
		}
		car := &Endpoint{Name: "car1", Trace: mobility.DriveBy(0, 0, 15), SpeedHintMS: mobility.MPH(15), TxPowerDBm: 15}
		_ = ch.AddEndpoint(ap)
		_ = ch.AddEndpoint(car)
		if withDisturber {
			// A second car shadowing the first at 3 m.
			ch.AddDisturber(mobility.DriveBy(-3, 0, 15), mobility.MPH(15))
		}
		return mustLink(t, ch, "ap1", "car1")
	}
	clean := mkch(false)
	dirty := mkch(true)
	var cleanSum, dirtySum float64
	for i := 0; i < 2000; i++ {
		ts := sim.Time(i) * 5 * sim.Millisecond
		cleanSum += clean.PathGainDB(ts)
		dirtySum += dirty.PathGainDB(ts)
	}
	if dirtySum >= cleanSum {
		t.Errorf("disturber did not reduce mean path gain (%v vs %v)", dirtySum/2000, cleanSum/2000)
	}
	if dirtySum < cleanSum-2000*10 {
		t.Errorf("disturber penalty implausibly large: mean %v dB", (cleanSum-dirtySum)/2000)
	}
}

// Property: RSSI is tx power plus path gain plus flat fading; scaling tx
// power moves RSSI one-for-one.
func TestRSSILinearInTxPower(t *testing.T) {
	ch := testChannel(t)
	l := mustLink(t, ch, "ap1", "car1")
	f := func(q uint8) bool {
		tx := float64(q)/8 - 10
		at := sim.FromSeconds(1.5)
		return math.Abs((l.RSSIdBm(at, tx)-l.RSSIdBm(at, 0))-tx) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShadowerStatistics(t *testing.T) {
	rng := sim.NewRNG(31)
	sh := NewShadower(4, 4, rng.Stream("shadow"))
	var sum, sumsq float64
	const n = 20000
	for i := 0; i < n; i++ {
		g := sh.GainDB(float64(i)*0.37, 0)
		sum += g
		sumsq += g * g
	}
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean) > 0.6 {
		t.Errorf("shadowing mean = %v dB, want ≈ 0", mean)
	}
	if std < 2.5 || std > 5.5 {
		t.Errorf("shadowing std = %v dB, want ≈ 4", std)
	}
}

func TestShadowerSpatialCorrelation(t *testing.T) {
	rng := sim.NewRNG(32)
	sh := NewShadower(4, 4, rng.Stream("shadow"))
	var nearDiff, farDiff float64
	const n = 2000
	for i := 0; i < n; i++ {
		x := float64(i) * 1.7
		g := sh.GainDB(x, 0)
		nearDiff += math.Abs(sh.GainDB(x+0.2, 0) - g) // well inside corr length
		farDiff += math.Abs(sh.GainDB(x+40, 0) - g)   // many corr lengths away
	}
	if nearDiff/n > 1.0 {
		t.Errorf("gain changes %v dB over 20 cm; not spatially correlated", nearDiff/n)
	}
	if farDiff/n < 2 {
		t.Errorf("gain changes only %v dB over 40 m; no decorrelation", farDiff/n)
	}
}

func TestShadowerNilSafe(t *testing.T) {
	var sh *Shadower
	if sh.GainDB(1, 2) != 0 {
		t.Error("nil shadower should be transparent")
	}
}

func TestNoFadingDisablesEverything(t *testing.T) {
	params := DefaultParams()
	params.NoFading = true
	ch := NewChannel(params, sim.NewRNG(3))
	_ = ch.AddEndpoint(&Endpoint{Name: "a", Trace: mobility.Stationary{At: mobility.Point{X: 0, Y: 12}}, TxPowerDBm: 17})
	_ = ch.AddEndpoint(&Endpoint{Name: "b", Trace: mobility.DriveBy(0, 0, 15), TxPowerDBm: 15, SpeedHintMS: mobility.MPH(15)})
	l := mustLink(t, ch, "a", "b")
	// Two samples at the same geometry must be identical: no fading, no
	// shadowing, no randomness.
	p1 := l.PathGainDB(sim.FromSeconds(1))
	snr := l.SampleInto(sim.FromSeconds(1), l.BudgetDB(sim.FromSeconds(1), 15), nil)
	for _, v := range snr[1:] {
		if v != snr[0] {
			t.Fatal("NoFading link is not frequency-flat")
		}
	}
	if l.RSSIdBm(sim.FromSeconds(1), 15)-15 != p1 {
		t.Error("NoFading RSSI should equal tx power + path gain")
	}
}
