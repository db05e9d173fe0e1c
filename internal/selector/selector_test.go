package selector

import (
	"math/rand/v2"
	"testing"

	"wgtt/internal/packet"
	"wgtt/internal/sim"
)

func allAlive(int) bool { return true }

func testParams() Params {
	return Params{
		Window:          10 * sim.Millisecond,
		MedianMarginDB:  0,
		MinSamples:      2,
		MinSwitchESNRdB: -5,
	}
}

// refSelect is an independent coding of the controller's pre-refactor
// inline §3.1.1 selection block, running on the sort-based reference
// windows. The Selector must agree with it decision for decision —
// target, metrics, and flip tracking — under a randomized CSI schedule.
type refSelect struct {
	p        Params
	windows  []*refWindow
	lastBest int
}

func newRefSelect(p Params, numAPs int) *refSelect {
	r := &refSelect{p: p, windows: make([]*refWindow, numAPs), lastBest: -1}
	for i := range r.windows {
		r.windows[i] = &refWindow{span: p.Window}
	}
	if r.p.MinSamples < 1 {
		r.p.MinSamples = 1
	}
	return r
}

func (r *refSelect) decide(serving int, now sim.Time, alive func(int) bool) Decision {
	d := Decision{Target: -1}
	best, bestMed := -1, 0.0
	for id, w := range r.windows {
		if !alive(id) {
			continue
		}
		med, ok := w.median(now)
		if !ok || (id != serving && len(w.val) < r.p.MinSamples) {
			continue
		}
		if best == -1 || med > bestMed {
			best, bestMed = id, med
		}
	}
	if best != -1 && best != r.lastBest {
		d.Flip = true
		r.lastBest = best
	}
	if best == -1 || best == serving {
		return d
	}
	if bestMed < r.p.MinSwitchESNRdB {
		return d
	}
	servMed, servOK := r.windows[serving].median(now)
	if !alive(serving) {
		servOK = false
	}
	if servOK && bestMed < servMed+r.p.MedianMarginDB {
		return d
	}
	if !servOK {
		servMed = 0
	}
	d.Target = best
	d.FromMetric = servMed
	d.ToMetric = bestMed
	return d
}

// Randomized equivalence: the Selector against the
// independent reference rule, with CSI arrivals, quiet gaps, serving-AP
// moves, AP deaths, and evidence resets interleaved.
func TestWindowedMedianMatchesInlineReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		rnd := rand.New(rand.NewPCG(seed, 17))
		const nAPs = 5
		p := testParams()
		mac := packet.ClientMAC(1)
		sel := New(Config{}, p, nAPs)
		sel.AddClient(mac, 0)
		ref := newRefSelect(p, nAPs)
		serving := 0
		dead := make([]bool, nAPs)
		alive := func(id int) bool { return !dead[id] }

		now := sim.Time(0)
		for step := 0; step < 5000; step++ {
			switch op := rnd.IntN(100); {
			case op < 60: // CSI from a random AP
				ap := rnd.IntN(nAPs)
				esnr := -10 + 40*rnd.Float64()
				sel.Observe(mac, ap, esnr, now)
				ref.windows[ap].push(now, esnr)
			case op < 80: // time passes
				now += sim.Time(rnd.IntN(6)) * sim.Millisecond
			case op < 88: // AP dies or recovers
				dead[rnd.IntN(nAPs)] = rnd.IntN(2) == 0
			case op < 95: // decide (and act on the verdict)
				got := sel.Decide(mac, serving, now, alive)
				want := ref.decide(serving, now, alive)
				if got != want {
					t.Fatalf("seed %d step %d: Decide = %+v, reference = %+v",
						seed, step, got, want)
				}
				if got.Target >= 0 {
					serving = got.Target
				}
			default: // controller restart: evidence resets
				sel.AddClient(mac, serving)
				for i := range ref.windows {
					ref.windows[i] = &refWindow{span: p.Window}
				}
				ref.lastBest = -1
			}
			now += 50 * sim.Microsecond
		}
	}
}

// The Observe+Decide hot path must be allocation-free at steady state —
// the controller calls it per CSI report. The subtest names the selection
// rule it runs, the windowed median.
func TestSelectorZeroAllocSteadyState(t *testing.T) {
	t.Run("windowed-median", func(t *testing.T) {
		sel := New(Config{}, testParams(), 8)
		mac := packet.ClientMAC(1)
		sel.AddClient(mac, 0)
		now := sim.Time(0)
		vals := [4]float64{21, 18, 24, 19}
		warm := func(n int) {
			for i := 0; i < n; i++ {
				now += 100 * sim.Microsecond
				sel.Observe(mac, i%8, vals[i&3], now)
				_ = sel.Decide(mac, 0, now, allAlive)
			}
		}
		warm(512) // fill the windows
		allocs := testing.AllocsPerRun(200, func() { warm(1) })
		if allocs != 0 {
			t.Fatalf("Observe+Decide allocates %.1f/op at steady state, want 0", allocs)
		}
	})
}
