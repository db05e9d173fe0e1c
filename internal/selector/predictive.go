package selector

import (
	"wgtt/internal/metrics"
	"wgtt/internal/sim"
)

// PredictivePolicy's operating point, calibrated on the ext-selector
// ablation (DESIGN.md §15).
const (
	// predictHorizon is how far ahead the trajectory fit extrapolates when
	// comparing APs — a few hysteresis-free evaluation rounds at vehicular
	// CSI rates.
	predictHorizon = 50 * sim.Millisecond
	// predictHistSpan is the fitting window of the per-AP linear model;
	// longer than the median window so the slope sees through fast fading.
	predictHistSpan = 100 * sim.Millisecond
	// predictMarginDB is how much better the challenger's predicted ESNR
	// must be than the serving AP's.
	predictMarginDB float64 = 1
	// predictCollapseDB arms the early switch: the serving AP must be
	// predicted to fall below this ESNR at the horizon before the policy
	// jumps. Without the floor every transient dip would trigger a
	// premature move to a challenger that is not yet better.
	predictCollapseDB float64 = 10
)

// predict is PredictivePolicy's verdict (DESIGN.md §15; the
// handover-prediction idea of arXiv 2111.13879 reduced to a linear model):
// alongside each §3.1.1 median window the client keeps a longer fitting
// window per AP, and a least-squares line extrapolates predictHorizon into
// the future. Whenever the median rule would stay put but the serving AP's
// ESNR is falling, it switches early to the challenger predicted to be best
// at the horizon — cutting the lag between the ground-truth best AP
// changing and the client actually moving, at the cost of occasionally
// jumping before the fade it predicted materializes.
//
// The median rule still runs first and wins when it fires: the forecast
// only adds switches, never suppresses one, so its worst case degrades to
// the windowed-median policy plus early (possibly premature) moves.
func (s *Selector) predict(cl *clientState, serving int, now sim.Time, alive func(int) bool) Decision {
	d := s.decideMedian(cl, serving, now, alive)
	if d.Target != -1 {
		return d // the base rule already switches; nothing to anticipate
	}
	if !alive(serving) {
		return d // failover territory, not forecasting
	}
	horizon := now + predictHorizon
	servSlope, servPred, ok := cl.hist[serving].fit(now, horizon)
	if !ok || servSlope >= 0 {
		return d // serving link steady or improving — no collapse to beat
	}
	if servPred >= predictCollapseDB {
		// Falling but still predicted usable at the horizon: a premature
		// jump would trade a working link for a forecast. Wait.
		return d
	}
	// Find the challenger with the best predicted ESNR at the horizon,
	// under the same evidence gates the median rule applies: enough fresh
	// in-window samples and a usable current median.
	best, bestPred := -1, 0.0
	for id := range cl.windows {
		if id == serving || !alive(id) {
			continue
		}
		med, ok := cl.windows[id].Median(now)
		if !ok || cl.windows[id].Size() < s.p.MinSamples {
			continue
		}
		if med < s.p.MinSwitchESNRdB {
			continue
		}
		pred := med
		if _, p, ok := cl.hist[id].fit(now, horizon); ok {
			pred = p
		}
		if best == -1 || pred > bestPred {
			best, bestPred = id, pred
		}
	}
	if best == -1 || bestPred < servPred+predictMarginDB {
		return d
	}
	d.Target = best
	d.Cause = metrics.CausePredictedCollapse
	d.FromMetric = servPred
	d.ToMetric = bestPred
	d.Early = true
	return d
}
