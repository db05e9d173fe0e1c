package eval

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"wgtt/internal/core"
	"wgtt/internal/mobility"
	"wgtt/internal/phy"
	"wgtt/internal/sim"
	"wgtt/internal/stats"
)

// Fig02Result is the millisecond-scale ESNR view of Fig. 2: per-AP ESNR
// traces during a 25 mph drive-by and the induced best-AP flip rate.
type Fig02Result struct {
	// ESNR[ap][i] is the i-th millisecond sample of that AP's uplink ESNR (dB).
	ESNR [][]float64
	// BestAP[i] is the optimal AP at each sample.
	BestAP []int
	// FlipsPerSecond is how often the best AP changes — the vehicular
	// picocell regime's defining property.
	FlipsPerSecond float64
}

// Fig02BestAPChurn reproduces Fig. 2: ESNR of three adjacent APs sampled
// every millisecond as a client drives by at 25 mph, and how often the
// best-AP choice changes.
func Fig02BestAPChurn(opt Options) (*Fig02Result, error) {
	s := core.DriveScenario(core.ModeWGTT, 25, opt.Seed)
	n, err := opt.build(s)
	if err != nil {
		return nil, err
	}
	aps := []int{0, 1, 2}
	step := sim.Millisecond
	dur := 3 * sim.Second
	if opt.Quick {
		dur = sim.Second
	}
	res := &Fig02Result{ESNR: make([][]float64, len(aps))}
	prev := -1
	flips := 0
	for t := sim.Time(0); t < dur; t += step {
		best, bestE := -1, math.Inf(-1)
		for i, ap := range aps {
			e := n.ClientESNR(0, ap, t)
			res.ESNR[i] = append(res.ESNR[i], e)
			if e > bestE {
				best, bestE = ap, e
			}
		}
		res.BestAP = append(res.BestAP, best)
		if prev != -1 && best != prev {
			flips++
		}
		prev = best
	}
	res.FlipsPerSecond = float64(flips) / dur.Seconds()
	return res, nil
}

// Render implements Result.
func (r *Fig02Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 2: best-AP churn at 25 mph: %.1f flips/s over %d ms samples\n",
		r.FlipsPerSecond, len(r.BestAP))
	// Print a decimated view of the first second.
	for i := range r.ESNR {
		var dec []float64
		for j := 0; j < len(r.ESNR[i]) && j < 1000; j += 50 {
			dec = append(dec, r.ESNR[i][j])
		}
		b.WriteString(seriesString(fmt.Sprintf("  AP%d ESNR", i+1), dec, 1))
	}
	return b.String()
}

// Fig04Result captures the §2 roaming-failure measurement.
type Fig04Result struct {
	SpeedsMPH []float64
	// Handovers per drive; the paper's 20 mph drive fails to hand over.
	Handovers []int
	// CapacityLossMbps is offered minus delivered rate — the shaded area
	// of Fig. 4 normalized by time.
	CapacityLossMbps []float64
	// OutageSeconds is the longest delivery gap.
	OutageSeconds []float64
}

// Fig04RoamingFailure reproduces Fig. 4 / §2: a CBR UDP stream to a client
// driving past the baseline (802.11r-style) network at 5 and 20 mph.
func Fig04RoamingFailure(opt Options) (*Fig04Result, error) {
	res := &Fig04Result{}
	for _, v := range []float64{5, 20} {
		s := core.DriveScenario(core.ModeBaseline, v, opt.Seed)
		d, err := opt.drive(s, core.Load{RateMbps: offeredUDPMbps, Record: true})
		if err != nil {
			return nil, err
		}

		out := d.Outcome(0)
		var longest sim.Time
		lastAt := sim.Time(0)
		for _, a := range out.Arrivals {
			if gap := a.At - lastAt; gap > longest {
				longest = gap
			}
			lastAt = a.At
		}
		if gap := s.Duration - lastAt; gap > longest {
			longest = gap
		}
		res.SpeedsMPH = append(res.SpeedsMPH, v)
		res.Handovers = append(res.Handovers, len(d.Net.Base.Handovers))
		res.CapacityLossMbps = append(res.CapacityLossMbps, offeredUDPMbps-out.Mbps)
		res.OutageSeconds = append(res.OutageSeconds, longest.Seconds())
	}
	return res, nil
}

// Render implements Result.
func (r *Fig04Result) Render() string {
	t := &stats.Table{Header: []string{"speed(mph)", "handovers", "capacity-loss(Mb/s)", "longest-outage(s)"}}
	for i := range r.SpeedsMPH {
		t.AddRow(fmt.Sprintf("%.0f", r.SpeedsMPH[i]), fmt.Sprintf("%d", r.Handovers[i]),
			stats.F(r.CapacityLossMbps[i]), stats.F(r.OutageSeconds[i]))
	}
	return "Fig 4 (§2): Enhanced 802.11r roaming under a 50 Mb/s UDP stream\n" + t.String()
}

// Table1Result holds switching-protocol execution times per offered load.
type Table1Result struct {
	RatesMbps []float64
	MeanMS    []float64
	StdMS     []float64
	Samples   []int
}

// Table1SwitchTime reproduces Table 1: the stop→start→ack execution time of
// the switching protocol while a UDP stream at 50–90 Mb/s is flowing.
func Table1SwitchTime(opt Options) (*Table1Result, error) {
	rates := []float64{50, 60, 70, 80, 90}
	if opt.Quick {
		rates = []float64{50, 90}
	}
	res := &Table1Result{}
	for _, rate := range rates {
		s := core.DriveScenario(core.ModeWGTT, 15, opt.Seed+uint64(rate))
		d, err := opt.drive(s, core.Load{RateMbps: rate})
		if err != nil {
			return nil, err
		}
		c := &stats.CDF{}
		for _, rec := range d.Net.Ctl.History {
			c.Add(rec.Duration.Milliseconds())
		}
		res.RatesMbps = append(res.RatesMbps, rate)
		res.MeanMS = append(res.MeanMS, c.Mean())
		res.StdMS = append(res.StdMS, c.StdDev())
		res.Samples = append(res.Samples, c.N())
	}
	return res, nil
}

// Render implements Result.
func (r *Table1Result) Render() string {
	t := &stats.Table{Header: []string{"rate(Mb/s)", "mean(ms)", "std(ms)", "switches"}}
	for i := range r.RatesMbps {
		t.AddRow(fmt.Sprintf("%.0f", r.RatesMbps[i]), stats.F(r.MeanMS[i]), stats.F(r.StdMS[i]),
			fmt.Sprintf("%d", r.Samples[i]))
	}
	return "Table 1: switching protocol execution time vs offered load\n" + t.String()
}

// Table2Result holds switching accuracy per system and protocol.
type Table2Result struct {
	Rows []Table2Row
}

// Table2Row is one measurement.
type Table2Row struct {
	Proto    string
	WGTT     float64 // percent
	Baseline float64 // percent
}

// Table2SwitchingAccuracy reproduces Table 2: the fraction of time the
// serving AP is the ESNR-optimal one during a 15 mph drive.
func Table2SwitchingAccuracy(opt Options) (*Table2Result, error) {
	res := &Table2Result{}
	for _, tcp := range []bool{true, false} {
		row := Table2Row{Proto: proto(tcp)}
		for _, mode := range []core.Mode{core.ModeWGTT, core.ModeBaseline} {
			s := core.DriveScenario(mode, 15, opt.Seed)
			n, err := opt.build(s)
			if err != nil {
				return nil, err
			}
			d := n.Attach([]core.Load{{TCP: tcp, RateMbps: offeredUDPMbps}})
			d.SampleOracle(10 * sim.Millisecond)
			if err := n.Run(); err != nil {
				return nil, err
			}
			acc := d.Accuracy()
			if mode == core.ModeWGTT {
				row.WGTT = acc
			} else {
				row.Baseline = acc
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render implements Result.
func (r *Table2Result) Render() string {
	t := &stats.Table{Header: []string{"proto", "WGTT(%)", "Enh-802.11r(%)"}}
	for _, row := range r.Rows {
		t.AddRow(row.Proto, stats.F(row.WGTT), stats.F(row.Baseline))
	}
	return "Table 2: switching accuracy (serving == ESNR-optimal AP), 15 mph\n" + t.String()
}

// Fig21Result holds the window-size sensitivity study.
type Fig21Result struct {
	WindowMS        []float64
	CapacityLossMbs []float64
	BestWindowMS    float64
}

// Fig21WindowSize reproduces Fig. 21 with the paper's methodology: collect
// an ESNR trace from a 15 mph drive, then *emulate* the median-window
// selection rule over it for each window size, charging the difference
// between the optimal AP's achievable rate and the selected AP's. CSI
// samples carry measurement noise, so tiny windows chase noise while big
// windows lag the channel — the paper finds the minimum at 10 ms.
func Fig21WindowSize(opt Options) (*Fig21Result, error) {
	windows := []sim.Time{
		sim.Millisecond, 2 * sim.Millisecond, 5 * sim.Millisecond,
		10 * sim.Millisecond, 20 * sim.Millisecond, 50 * sim.Millisecond,
		100 * sim.Millisecond, 200 * sim.Millisecond, 400 * sim.Millisecond,
	}
	runs := 10
	if opt.Quick {
		windows = []sim.Time{2 * sim.Millisecond, 10 * sim.Millisecond, 100 * sim.Millisecond}
		runs = 2
	}
	res := &Fig21Result{}
	losses := make([]float64, len(windows))
	for run := 0; run < runs; run++ {
		trace, err := collectESNRTrace(opt.Seed + uint64(run))
		if err != nil {
			return nil, err
		}
		for wi, w := range windows {
			losses[wi] += emulateSelection(trace, w)
		}
	}
	best := 0
	for wi, w := range windows {
		avg := losses[wi] / float64(runs)
		res.WindowMS = append(res.WindowMS, w.Milliseconds())
		res.CapacityLossMbs = append(res.CapacityLossMbs, avg)
		if avg < res.CapacityLossMbs[best] {
			best = wi
		}
	}
	res.BestWindowMS = res.WindowMS[best]
	return res, nil
}

// esnrTrace is a sampled multi-AP ESNR history.
type esnrTrace struct {
	step sim.Time
	// noisy[ap][i] is what the controller would see (CSI estimation noise);
	// truth[ap][i] is the actual channel.
	noisy [][]float64
	truth [][]float64
}

// collectESNRTrace samples all eight AP links at CSI rate during a 15 mph
// drive-through, with 3 dB estimation noise on the reported values (single-
// frame CSI SNR estimates on commodity NICs are noisy; the Atheros tool's
// per-frame readings scatter by several dB).
func collectESNRTrace(seed uint64) (*esnrTrace, error) {
	s := core.DriveScenario(core.ModeWGTT, 15, seed)
	n, err := core.Build(s)
	if err != nil {
		return nil, err
	}
	rnd := sim.NewRNG(seed).Stream("fig21/noise")
	step := sim.Millisecond
	tr := &esnrTrace{step: step, noisy: make([][]float64, len(n.APs)), truth: make([][]float64, len(n.APs))}
	for t := sim.Time(0); t < s.Duration; t += step {
		for ap := range n.APs {
			e := n.ClientESNR(0, ap, t)
			tr.truth[ap] = append(tr.truth[ap], e)
			tr.noisy[ap] = append(tr.noisy[ap], e+rnd.NormFloat64()*3.0)
		}
	}
	return tr, nil
}

// emulateSelection runs the median-window rule over the trace and returns
// the mean capacity loss (Mb/s) versus the oracle.
func emulateSelection(tr *esnrTrace, window sim.Time) float64 {
	return emulateSelectionWith(tr, window, median)
}

// emulateSelectionWith is emulateSelection with a pluggable window
// statistic (the §3.1.1 ablation compares median/mean/latest).
func emulateSelectionWith(tr *esnrTrace, window sim.Time, stat func([]float64) float64) float64 {
	wlen := int(window / tr.step)
	if wlen < 1 {
		wlen = 1
	}
	nAP := len(tr.truth)
	samples := len(tr.truth[0])
	var lossSum float64
	var count int
	scratch := make([]float64, 0, wlen)
	for i := 0; i < samples; i++ {
		// Selected AP: max window statistic of noisy readings.
		selected, selMed := -1, math.Inf(-1)
		for ap := 0; ap < nAP; ap++ {
			lo := i - wlen + 1
			if lo < 0 {
				lo = 0
			}
			win := tr.noisy[ap][lo : i+1]
			if len(win) > 32 {
				// Decimate big windows: the median of 32 evenly spaced
				// samples is statistically indistinguishable here and
				// keeps the sweep O(n·32 log 32) instead of O(n·W²).
				scratch = scratch[:0]
				stride := float64(len(win)) / 32
				for k := 0; k < 32; k++ {
					scratch = append(scratch, win[int(float64(k)*stride)])
				}
			} else {
				scratch = append(scratch[:0], win...)
			}
			med := stat(scratch)
			if med > selMed {
				selected, selMed = ap, med
			}
		}
		// Oracle AP by true ESNR.
		bestRate, selRate := 0.0, 0.0
		for ap := 0; ap < nAP; ap++ {
			r := achievableRate(tr.truth[ap][i])
			if r > bestRate {
				bestRate = r
			}
			if ap == selected {
				selRate = r
			}
		}
		if bestRate <= 0 {
			continue // nobody can serve here; no capacity to lose
		}
		lossSum += bestRate - selRate
		count++
	}
	if count == 0 {
		return 0
	}
	return lossSum / float64(count)
}

// achievableRate maps an ESNR to the goodput of the best usable MCS.
func achievableRate(esnrDB float64) float64 {
	best := 0.0
	for i := 0; i < phy.NumMCS; i++ {
		m := phy.MCS(i)
		per := phy.PER(m, esnrDB, 1500)
		if r := m.DataRateMbps() * (1 - per); r > best {
			best = r
		}
	}
	return best
}

// median returns the upper median of xs, sorting it in place, or 0 when
// empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// Render implements Result.
func (r *Fig21Result) Render() string {
	t := &stats.Table{Header: []string{"window(ms)", "capacity-loss(Mb/s)"}}
	for i := range r.WindowMS {
		t.AddRow(stats.F(r.WindowMS[i]), stats.F(r.CapacityLossMbs[i]))
	}
	return fmt.Sprintf("Fig 21: selection-window sweep (best = %.0f ms)\n", r.BestWindowMS) + t.String()
}

// Fig10Result is the ESNR heatmap of the road.
type Fig10Result struct {
	// XsM are sample positions along the road.
	XsM []float64
	// ESNR[ap][i] is the mean ESNR at position XsM[i].
	ESNR [][]float64
}

// Fig10Heatmap reproduces Fig. 10: the per-AP ESNR field along the road,
// measured with a parked probe at each position.
func Fig10Heatmap(opt Options) (*Fig10Result, error) {
	positions := mobility.DefaultAPPositions()
	s := core.Scenario{
		Mode: core.ModeWGTT, Seed: opt.Seed, Duration: sim.Second,
		Clients: []core.ClientSpec{{Trace: mobility.DriveBy(-5, 0, 15), SpeedMPH: 15}},
	}
	n, err := opt.build(s)
	if err != nil {
		return nil, err
	}
	res := &Fig10Result{ESNR: make([][]float64, len(positions))}
	step := 2.0
	if opt.Quick {
		step = 8.0
	}
	// The drive covers x = -5 … 80 at 15 mph; convert positions to times.
	v := mobility.MPH(15)
	for x := 0.0; x <= 75; x += step {
		res.XsM = append(res.XsM, x)
		t := sim.FromSeconds((x + 5) / v)
		for ap := range positions {
			// Average the fast fading out over ±25 ms.
			var sum float64
			const k = 11
			for i := 0; i < k; i++ {
				sum += n.ClientESNR(0, ap, t+sim.Time(i-k/2)*5*sim.Millisecond)
			}
			res.ESNR[ap] = append(res.ESNR[ap], sum/k)
		}
	}
	return res, nil
}

// Render implements Result.
func (r *Fig10Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig 10: mean ESNR (dB) along the road per AP\n      x:")
	for _, x := range r.XsM {
		fmt.Fprintf(&b, "%6.0f", x)
	}
	b.WriteString("\n")
	for ap := range r.ESNR {
		fmt.Fprintf(&b, "  AP%d   :", ap+1)
		for _, e := range r.ESNR[ap] {
			fmt.Fprintf(&b, "%6.1f", e)
		}
		b.WriteString("\n")
	}
	return b.String()
}
