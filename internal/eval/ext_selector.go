package eval

import (
	"fmt"

	"wgtt/internal/core"
	"wgtt/internal/mobility"
	"wgtt/internal/selector"
	"wgtt/internal/sim"
	"wgtt/internal/stats"
)

// ExtSelectorResult compares the pluggable AP-selection policies
// (DESIGN.md §15) on one multi-client drive.
type ExtSelectorResult struct {
	Policies      []selector.Policy
	PerClientMbps []float64 // mean downlink UDP goodput per client
	Accuracy      []float64 // fraction of samples serving the oracle-best AP
	SwitchesPerS  []float64
	EarlySwitches []uint64  // predictive early (pre-collapse) switches
	AssignRounds  []uint64  // fleet-wide reassignment rounds
	StarvedPct    []float64 // samples riding a collapsed serving link (< 8 dB)
	CollapseLagMS []float64 // mean time to leave a collapsed serving link
	MeanAPLoad    []float64 // mean max concurrent clients on one AP
}

// ExtSelector runs the AP-selection policy ablation: three following
// clients at 25 mph under each policy, same seed, same workload. The
// interesting deltas are the ones each extension buys — Predictive cuts
// the lag between the ground-truth best AP changing and the client
// actually switching (it moves before the ESNR collapse instead of after),
// and GlobalAssign caps how many co-located clients pile onto one picocell
// (peak AP load bounded by its per-AP budget) at equal-or-better goodput.
func ExtSelector(opt Options) (*ExtSelectorResult, error) {
	const nClients = 3
	res := &ExtSelectorResult{}
	for _, pol := range selector.Policies() {
		s := core.MultiClientScenario(core.ModeWGTT, mobility.Following, nClients, 25, opt.Seed)
		s.Policy = pol
		n, err := opt.build(s)
		if err != nil {
			return nil, err
		}
		d := n.Attach(core.Loads(nClients, core.Load{RateMbps: 20}))

		// Oracle sampling: accuracy, starvation on a collapsed serving
		// link (a better AP existed but the client had not moved yet —
		// exactly the window Predictive pre-empts), and concurrent AP load
		// (the pile-up GlobalAssign's budget caps).
		const starveDB = 8.0
		var (
			samples, hits, starved int
			loadTicks, loadMaxSum  int
			load                   = make([]int, len(n.APs))
			epStart                = make([]sim.Time, nClients)
			epServ                 = make([]int, nClients)
			latSum                 sim.Time
			latN                   int
		)
		for ci := range epStart {
			epStart[ci] = -1
			epServ[ci] = -1
		}
		d.SampleOracle(10*sim.Millisecond, func(at sim.Time, tick []core.OracleSample) {
			for i := range load {
				load[i] = 0
			}
			for ci, o := range tick {
				best, bestESNR := o.Best, o.BestESNR
				serv := o.Serving
				samples++
				if serv == best {
					hits++
				}
				collapsed := serv != best &&
					n.ClientESNR(ci, serv, at) < starveDB && bestESNR >= starveDB
				if collapsed {
					starved++
				}
				// Collapse episodes: the serving link went unusable while a
				// usable AP existed. The latency until the client leaves
				// that AP is the reaction time each policy is judged on.
				if epStart[ci] >= 0 && serv != epServ[ci] {
					latSum += at - epStart[ci]
					latN++
					epStart[ci] = -1
				}
				if epStart[ci] < 0 && collapsed {
					epStart[ci] = at
					epServ[ci] = serv
				} else if epStart[ci] >= 0 && !collapsed && serv == epServ[ci] {
					epStart[ci] = -1 // the link recovered on its own
				}
				if serv >= 0 && serv < len(load) {
					load[serv]++
				}
			}
			maxLoad := 0
			for _, l := range load {
				if l > maxLoad {
					maxLoad = l
				}
			}
			loadTicks++
			loadMaxSum += maxLoad
		})
		n.Run()

		cs := n.CtlStats()
		res.Policies = append(res.Policies, pol)
		res.PerClientMbps = append(res.PerClientMbps, meanMbps(d))
		res.Accuracy = append(res.Accuracy, float64(hits)/float64(samples))
		res.SwitchesPerS = append(res.SwitchesPerS,
			float64(cs.SwitchesDone)/s.Duration.Seconds())
		res.EarlySwitches = append(res.EarlySwitches, cs.PredictiveEarlySwitches)
		res.AssignRounds = append(res.AssignRounds, cs.AssignmentRounds)
		res.StarvedPct = append(res.StarvedPct, 100*float64(starved)/float64(samples))
		lag := 0.0
		if latN > 0 {
			lag = (sim.Time(int64(latSum) / int64(latN))).Seconds() * 1000
		}
		res.CollapseLagMS = append(res.CollapseLagMS, lag)
		res.MeanAPLoad = append(res.MeanAPLoad, float64(loadMaxSum)/float64(loadTicks))
	}
	return res, nil
}

// Render implements Result.
func (r *ExtSelectorResult) Render() string {
	t := &stats.Table{Header: []string{"policy", "per-client (Mb/s)", "accuracy",
		"switches/s", "early", "rounds", "starved %", "collapse lag (ms)", "mean AP load"}}
	for i := range r.Policies {
		t.AddRow(string(r.Policies[i]), stats.F(r.PerClientMbps[i]),
			fmt.Sprintf("%.3f", r.Accuracy[i]), stats.F(r.SwitchesPerS[i]),
			fmt.Sprintf("%d", r.EarlySwitches[i]), fmt.Sprintf("%d", r.AssignRounds[i]),
			fmt.Sprintf("%.2f", r.StarvedPct[i]), stats.F(r.CollapseLagMS[i]),
			fmt.Sprintf("%.2f", r.MeanAPLoad[i]))
	}
	return "Extension (§15): AP-selection policy ablation, 3 clients, 25 mph\n" + t.String()
}
