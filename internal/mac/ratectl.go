package mac

import (
	"math/rand/v2"

	"wgtt/internal/phy"
)

// minstrel is a compact per-peer rate controller in the spirit of Linux
// Minstrel (the testbed APs run the default rate control unmodified, §4):
// it tracks an EWMA delivery probability per MCS, sends most frames at the
// rate with the best expected throughput, and spends a fraction of frames
// probing other rates so it can climb back up after fades.
type minstrel struct {
	prob    [phy.NumMCS]float64 // EWMA delivery probability
	counter int
}

// ewmaWeight is the weight of history on each update; per-aggregate updates
// make adaptation fast enough for vehicular channel dynamics.
const ewmaWeight = 0.75

// probeInterval is how often (in frames) a probe rate is chosen instead of
// the current best.
const probeInterval = 8

func newMinstrel() *minstrel {
	m := &minstrel{}
	for i := range m.prob {
		// Optimistic start so new links try high rates once, mirroring
		// Minstrel's sampling bootstrap.
		m.prob[i] = 0.5
	}
	return m
}

// pick selects the MCS for the next aggregate.
func (m *minstrel) pick(rnd *rand.Rand) phy.MCS {
	m.counter++
	if m.counter%probeInterval == 0 {
		// Probe: prefer a rate adjacent to the current best so the probe
		// is informative without wrecking the aggregate.
		best := m.best()
		if rnd.IntN(2) == 0 && best < phy.NumMCS-1 {
			return best + 1
		}
		if best > 0 {
			return best - 1
		}
		return best + 1
	}
	return m.best()
}

// best returns the MCS with the highest expected throughput.
func (m *minstrel) best() phy.MCS {
	bestIdx := 0
	bestTp := -1.0
	for i := 0; i < phy.NumMCS; i++ {
		tp := m.prob[i] * phy.MCS(i).DataRateMbps()
		// A rate with terrible delivery is not usable regardless of its
		// nominal speed (Minstrel's 10% rule).
		if m.prob[i] < 0.1 {
			tp = m.prob[i] * phy.MCS(0).DataRateMbps() * 0.1
		}
		if tp > bestTp {
			bestTp = tp
			bestIdx = i
		}
	}
	return phy.MCS(bestIdx)
}

// update folds one aggregate's outcome into the EWMA for the used rate, and
// nudges neighbouring rates in the same direction so a deep fade demotes
// the whole upper tail quickly.
func (m *minstrel) update(mcs phy.MCS, attempted, acked int) {
	if attempted <= 0 {
		return
	}
	obs := float64(acked) / float64(attempted)
	i := int(mcs)
	m.prob[i] = ewmaWeight*m.prob[i] + (1-ewmaWeight)*obs
	// Monotonicity hints: success at rate r implies rates below r work at
	// least as well; failure at r implies rates above r work no better.
	if obs > 0.9 {
		for j := 0; j < i; j++ {
			if m.prob[j] < m.prob[i] {
				m.prob[j] = ewmaWeight*m.prob[j] + (1-ewmaWeight)*1.0
			}
		}
	}
	// Optimistic climb: a clean aggregate unlocks the next rate up, the
	// way Minstrel-HT's multi-rate sampling lets a good link ratchet to
	// the top in a handful of aggregates. A failed trial drops it right
	// back on the next update.
	if obs >= 0.95 && i+1 < phy.NumMCS {
		if up := 0.92 * m.prob[i]; m.prob[i+1] < up {
			m.prob[i+1] = up
		}
	}
	if obs < 0.1 {
		for j := i + 1; j < phy.NumMCS; j++ {
			m.prob[j] = ewmaWeight*m.prob[j] + (1-ewmaWeight)*obs
		}
	}
}
