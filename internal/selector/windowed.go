package selector

import (
	"wgtt/internal/packet"
	"wgtt/internal/sim"
)

// WindowedMedian is the paper's §3.1.1 selection rule, verbatim: on every
// evaluation pick the alive AP with the maximal windowed median ESNR, gated
// by MinSamples (challengers only), MinSwitchESNRdB, and the incumbent-
// defense margin. It is the default policy and is pinned byte-identical to
// the pre-extraction inline controller logic by the equivalence test and
// the regenerated experiment outputs.
type WindowedMedian struct {
	base
}

// Decide implements Selector: the pure §3.1.1 median rule.
func (s *WindowedMedian) Decide(mac packet.MACAddr, serving int, now sim.Time, alive func(int) bool) Decision {
	cl := s.clients[mac]
	if cl == nil {
		return stay()
	}
	return s.decideMedian(cl, serving, now, alive)
}
