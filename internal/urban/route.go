package urban

import (
	"fmt"
	"math"

	"wgtt/internal/mobility"
	"wgtt/internal/sim"
)

// Traffic-light model: every intersection where three or more segments meet
// carries a fixed-cycle light. A vehicle arriving during the red window
// dwells in place until the next green. The phase offset is drawn per node
// from a named RNG stream, so every vehicle in the city sees the same
// light schedule at the same corner.
const (
	lightCycle = 8 * sim.Second
	lightRed   = 3500 * sim.Millisecond
)

// Turn model: a heading change sharper than turnThresholdRad slows the
// vehicle to turnSpeedMPH through the last/first few meters of the legs
// meeting at the corner.
const (
	turnThresholdRad = 0.35
	turnSpeedMPH     = 8.0
	turnZoneM        = 8.0
)

// routeCfg carries the per-vehicle knobs of buildRoute.
type routeCfg struct {
	topMPH float64  // design speed; legs run at min(topMPH, limit)
	depart sim.Time // when the vehicle leaves the first node
	// lightPhase returns the light-cycle phase offset of node n, or -1 if
	// the node has no light. nil disables lights (pedestrians).
	lightPhase func(n int) sim.Time
	// turns disables the corner slowdown when false (pedestrians).
	turns bool
}

// routeStats tallies what buildRoute actually did, feeding the urban
// counters.
type routeStats struct {
	Turns      uint64
	LightStops uint64
	DwellS     float64
	EndAt      sim.Time
}

// buildRoute converts a node path into a waypoint trace: each leg runs at
// min(design speed, segment limit), corners sharper than ~20° pass through
// an 8 mph turn zone, and red lights insert a same-position dwell waypoint
// (possibly zero-length — the trace constructor coalesces those).
func buildRoute(g *Graph, path []int, cfg routeCfg) (*mobility.WaypointTrace, routeStats, error) {
	var st routeStats
	if len(path) < 2 {
		return nil, st, fmt.Errorf("urban: route needs at least two nodes, got %d", len(path))
	}
	now := cfg.depart
	wps := []mobility.Waypoint{{At: now, Pos: g.Nodes[path[0]].Pos}}
	prevHeading := math.NaN()
	for leg := 0; leg+1 < len(path); leg++ {
		a, b := path[leg], path[leg+1]
		ei := g.EdgeBetween(a, b)
		if ei < 0 {
			return nil, st, fmt.Errorf("urban: route hop %d->%d is not a street segment", a, b)
		}
		e := g.Edges[ei]
		from, to := g.Nodes[a].Pos, g.Nodes[b].Pos
		length := e.Length
		dir := to.Sub(from).Scale(1 / length)
		heading := math.Atan2(dir.Y, dir.X)

		cruise := mobility.MPH(math.Min(cfg.topMPH, e.SpeedMPH))
		turnV := mobility.MPH(turnSpeedMPH)
		zone := math.Min(turnZoneM, length/2)

		// Entry turn zone: if the heading changed sharply at node a, creep
		// through the first few meters of this leg at turn speed.
		entrySlow := false
		if cfg.turns && !math.IsNaN(prevHeading) {
			d := math.Abs(heading - prevHeading)
			if d > math.Pi {
				d = 2*math.Pi - d
			}
			if d > turnThresholdRad {
				entrySlow = true
				st.Turns++
			}
		}
		// Exit turn zone: slow before node b if the *next* hop turns there.
		exitSlow := false
		if cfg.turns && leg+2 < len(path) {
			nn := g.Nodes[path[leg+2]].Pos
			next := nn.Sub(to)
			nh := math.Atan2(next.Y, next.X)
			d := math.Abs(nh - heading)
			if d > math.Pi {
				d = 2*math.Pi - d
			}
			if d > turnThresholdRad {
				exitSlow = true
			}
		}

		addLeg := func(dist float64, speed float64) {
			if dist <= 0 {
				return
			}
			now += sim.FromSeconds(dist / speed)
			pos := wps[len(wps)-1].Pos.Add(dir.Scale(dist))
			wps = append(wps, mobility.Waypoint{At: now, Pos: pos})
		}
		mid := length
		if entrySlow {
			addLeg(zone, turnV)
			mid -= zone
		}
		if exitSlow {
			mid -= zone
		}
		addLeg(mid, cruise)
		if exitSlow {
			addLeg(zone, turnV)
		}
		prevHeading = heading

		// Traffic light at node b: dwell until green, except at the route's
		// terminus where the vehicle just parks.
		if cfg.lightPhase != nil && leg+2 < len(path) {
			if phase := cfg.lightPhase(b); phase >= 0 {
				into := (now + phase) % lightCycle
				if into < lightRed {
					wait := lightRed - into
					now += wait
					st.LightStops++
					st.DwellS += wait.Seconds()
					wps = append(wps, mobility.Waypoint{At: now, Pos: wps[len(wps)-1].Pos})
				}
			}
		}
	}
	st.EndAt = now
	tr, err := mobility.NewWaypointTrace(wps)
	if err != nil {
		return nil, st, fmt.Errorf("urban: building route trace: %w", err)
	}
	return tr, st, nil
}

// RiderTrace is a client riding inside a vehicle: it follows the lead trace
// with a small fixed world-frame offset (a seat), so all riders of one bus
// move as one correlated group. §5.2's buses carry tens of such riders.
type RiderTrace struct {
	Lead   mobility.Trace
	Offset mobility.Point
}

// Position implements mobility.Trace.
func (r RiderTrace) Position(t sim.Time) mobility.Point {
	return r.Lead.Position(t).Add(r.Offset)
}
