package mobility

import "wgtt/internal/sim"

// Clip is a trace windowed to [From, To]: inside the window it follows
// Inner; outside it the client is parked at the window edge's position. The
// metro uses it to split one city-wide route into per-cell trace segments —
// each cell simulation sees the client frozen at its seam-crossing point
// before it arrives and after it leaves, so sampling a clipped trace outside
// the client's visit never extrapolates into another cell's geography.
type Clip struct {
	Inner    Trace
	From, To sim.Time
}

func (c Clip) clamp(t sim.Time) sim.Time {
	if t < c.From {
		return c.From
	}
	if t > c.To {
		return c.To
	}
	return t
}

// Position implements Trace.
func (c Clip) Position(t sim.Time) Point { return c.Inner.Position(c.clamp(t)) }
