package selector

import (
	"math/rand/v2"
	"testing"

	"wgtt/internal/metrics"
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

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
		err  bool
	}{
		{"", WindowedMedianPolicy, false},
		{"windowed-median", WindowedMedianPolicy, false},
		{"predictive", PredictivePolicy, false},
		{"global-assign", GlobalAssignPolicy, false},
		{"oracle", "", true},
		{"Windowed-Median", "", true},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if c.err != (err != nil) || got != c.want {
			t.Errorf("ParsePolicy(%q) = %q, %v; want %q, err=%v", c.in, got, err, c.want, c.err)
		}
	}
	if got := Policies(); len(got) != 3 {
		t.Fatalf("Policies() = %v, want 3 entries", got)
	}
	for _, pol := range Policies() {
		got, err := ParsePolicy(string(pol))
		if err != nil || got != pol {
			t.Fatalf("ParsePolicy(%q) = %q, %v", pol, got, err)
		}
		if s := New(Config{Policy: pol}, testParams(), 2); s.policy != pol {
			t.Fatalf("New(%q) runs policy %q", pol, s.policy)
		}
	}
}

// New panics on a policy name ParsePolicy would reject: a caller that
// skipped validation is a programming error, not a silent default.
func TestNewRejectsUnknownPolicy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an unknown policy")
		}
	}()
	New(Config{Policy: "oracle"}, testParams(), 2)
}

// refSelect is an independent coding of the controller's pre-refactor
// inline §3.1.1 selection block, running on the sort-based reference
// windows. The windowed-median policy must agree with it decision
// for decision — target, cause, metrics, and flip tracking — under a
// randomized CSI schedule.
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
	d.Cause = metrics.CauseMedianArgmax
	d.FromMetric = servMed
	d.ToMetric = bestMed
	return d
}

// Randomized equivalence: the windowed-median policy against the
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
					sel.SetServing(mac, serving)
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

// Predictive must fire the switch while the serving AP's median still wins
// — strictly before the §3.1.1 rule would move — when the serving link is
// collapsing and the challenger is rising.
func TestPredictiveSwitchesBeforeMedianCrossover(t *testing.T) {
	p := testParams()
	mac := packet.ClientMAC(1)
	med := New(Config{}, p, 2)
	pred := New(Config{Policy: PredictivePolicy}, p, 2)
	for _, s := range []*Selector{med, pred} {
		s.AddClient(mac, 0)
	}

	// Serving AP 0 falls 200 dB/s from 20 dB; challenger AP 1 rises
	// 200 dB/s from 10 dB. Medians cross at ~25 ms; the predictor should
	// move as soon as the extrapolated gap exceeds its margin.
	var medAt, predAt sim.Time = -1, -1
	for at := sim.Time(0); at <= 60*sim.Millisecond; at += sim.Millisecond {
		for _, s := range []*Selector{med, pred} {
			s.Observe(mac, 0, 20-200*at.Seconds(), at)
			s.Observe(mac, 1, 10+200*at.Seconds(), at)
		}
		if medAt < 0 {
			if d := med.Decide(mac, 0, at, allAlive); d.Target == 1 {
				medAt = at
			}
		}
		if predAt < 0 {
			d := pred.Decide(mac, 0, at, allAlive)
			if d.Target == 1 {
				predAt = at
				if !d.Early || d.Cause != metrics.CausePredictedCollapse {
					t.Fatalf("predictive switch not marked early: %+v", d)
				}
				if d.ToMetric < d.FromMetric+1.0 {
					t.Fatalf("predicted gap below margin: %+v", d)
				}
			}
		}
	}
	if medAt < 0 || predAt < 0 {
		t.Fatalf("no switch: median at %v, predictive at %v", medAt, predAt)
	}
	if predAt >= medAt {
		t.Fatalf("predictive switched at %v, not before the median rule's %v", predAt, medAt)
	}
}

// When the §3.1.1 rule itself fires, Predictive must return exactly its
// verdict — the forecast only adds switches, never changes one.
func TestPredictiveDefersToMedianRule(t *testing.T) {
	p := testParams()
	mac := packet.ClientMAC(1)
	med := New(Config{}, p, 3)
	pred := New(Config{Policy: PredictivePolicy}, p, 3)
	rnd := rand.New(rand.NewPCG(7, 9))
	for _, s := range []*Selector{med, pred} {
		s.AddClient(mac, 0)
	}
	now := sim.Time(0)
	for step := 0; step < 3000; step++ {
		ap := rnd.IntN(3)
		esnr := -10 + 40*rnd.Float64()
		med.Observe(mac, ap, esnr, now)
		pred.Observe(mac, ap, esnr, now)
		dm := med.Decide(mac, 0, now, allAlive)
		dp := pred.Decide(mac, 0, now, allAlive)
		if dm.Target != -1 && dp != dm {
			t.Fatalf("step %d: median rule fired %+v but predictive returned %+v", step, dm, dp)
		}
		now += 200 * sim.Microsecond
	}
}

// GlobalAssign must spread clients across APs under the per-AP budget even
// when one AP is everyone's argmax, and it must leave a client on its
// serving AP when the budget squeezes it out entirely.
func TestGlobalAssignRespectsBudget(t *testing.T) {
	p := testParams()
	sel := New(Config{Policy: GlobalAssignPolicy}, p, 3)
	// One client more than AP 0's budget, all served by AP 0.
	var macs []packet.MACAddr
	for i := 1; i <= assignBudget+1; i++ {
		macs = append(macs, packet.ClientMAC(i))
	}
	for _, m := range macs {
		sel.AddClient(m, 0)
	}
	// AP 0 is best for everyone; APs 1 and 2 are usable but worse by more
	// than the stickiness bonus.
	now := sim.Time(0)
	for i := 0; i < 20; i++ {
		for _, m := range macs {
			sel.Observe(m, 0, 30, now)
			sel.Observe(m, 1, 20, now)
			sel.Observe(m, 2, 10, now)
		}
		now += 500 * sim.Microsecond
	}
	serving := map[packet.MACAddr]int{}
	var rounds int
	targets := make(map[packet.MACAddr]int)
	for _, m := range macs {
		d := sel.Decide(m, 0, now, allAlive)
		if d.NewRound {
			rounds++
		}
		targets[m] = d.Target
		serving[m] = 0
		if d.Target >= 0 {
			if d.Cause != metrics.CauseGlobalAssign {
				t.Fatalf("cause = %q, want %q", d.Cause, metrics.CauseGlobalAssign)
			}
			serving[m] = d.Target
			sel.SetServing(m, d.Target)
		}
	}
	if rounds != 1 {
		t.Fatalf("assignment rounds = %d, want exactly 1 (lazy trigger)", rounds)
	}
	// AP 0 keeps exactly its budget (those clients stay, Target -1); the
	// one left over is pushed to the next-best AP 1.
	assigned := map[int]int{}
	for _, m := range macs {
		assigned[serving[m]]++
	}
	if assigned[0] != assignBudget || assigned[1] != 1 {
		t.Fatalf("per-AP load %v, want %d on AP 0 and 1 on AP 1 (targets %v)", assigned, assignBudget, targets)
	}
}

// A recomputation round is triggered lazily by the first Decide past the
// period boundary, and between rounds clients follow the stored assignment
// without re-sorting.
func TestGlobalAssignPeriodicRounds(t *testing.T) {
	p := testParams()
	sel := New(Config{Policy: GlobalAssignPolicy}, p, 2)
	mac := packet.ClientMAC(1)
	sel.AddClient(mac, 0)
	rounds := 0
	now := sim.Time(0)
	for ; now < 7*assignPeriod/2; now += sim.Millisecond {
		sel.Observe(mac, 0, 20, now)
		sel.Observe(mac, 1, 15, now)
		if d := sel.Decide(mac, 0, now, allAlive); d.NewRound {
			rounds++
		}
	}
	if rounds != 4 {
		t.Fatalf("rounds in 3.5 periods = %d, want 4", rounds)
	}
}

// The Observe+Decide hot path must be allocation-free at steady state for
// every policy — the controller calls it per CSI report.
func TestSelectorZeroAllocSteadyState(t *testing.T) {
	for _, pol := range Policies() {
		t.Run(string(pol), func(t *testing.T) {
			p := testParams()
			sel := New(Config{Policy: pol}, p, 8)
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
			warm(512) // fill windows, run assignment rounds, size scratch
			allocs := testing.AllocsPerRun(200, func() { warm(1) })
			if allocs != 0 {
				t.Fatalf("%s Observe+Decide allocates %.1f/op at steady state, want 0", pol, allocs)
			}
		})
	}
}
