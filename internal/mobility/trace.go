package mobility

import (
	"fmt"
	"math"
	"sort"

	"wgtt/internal/sim"
)

// Trace reports where a client is at a point in virtual time.
// Implementations must be pure: the same t always yields the same answer,
// so components may sample a trace at any granularity.
type Trace interface {
	// Position returns the client's location at time t.
	Position(t sim.Time) Point
}

// Stationary is a Trace that never moves. It models the parked/static client
// of the paper's 0 mph data point.
type Stationary struct {
	At Point
}

// Position implements Trace.
func (s Stationary) Position(sim.Time) Point { return s.At }

// LinearDrive is a constant-velocity drive along the road: the client sits
// at Start until Depart, then moves with the given velocity. It models the
// paper's drive-by experiments (a car passing the eight-AP array at constant
// speed).
type LinearDrive struct {
	Start    Point    // position at and before Depart
	Vel      Point    // velocity in m/s once moving
	Depart   sim.Time // time motion begins
	Duration sim.Time // optional: stop after this long in motion (0 = never)
}

// DriveBy returns a LinearDrive that enters at startX in the lane laneY and
// travels in +X at speedMPH, departing at time zero.
func DriveBy(startX, laneY, speedMPH float64) *LinearDrive {
	return &LinearDrive{
		Start: Point{X: startX, Y: laneY},
		Vel:   Point{X: MPH(speedMPH)},
	}
}

// Position implements Trace.
func (d *LinearDrive) Position(t sim.Time) Point {
	if t <= d.Depart {
		return d.Start
	}
	elapsed := t - d.Depart
	if d.Duration > 0 && elapsed > d.Duration {
		elapsed = d.Duration
	}
	return d.Start.Add(d.Vel.Scale(elapsed.Seconds()))
}

// String describes the drive for logs.
func (d *LinearDrive) String() string {
	return fmt.Sprintf("drive from %v at %.1f mph", d.Start, math.Hypot(d.Vel.X, d.Vel.Y)/MetersPerSecondPerMPH)
}

// Waypoint is one leg endpoint of a WaypointTrace.
type Waypoint struct {
	At  sim.Time
	Pos Point
}

// WaypointTrace interpolates linearly between time-stamped waypoints. Before
// the first waypoint the client is parked at it; after the last, parked at
// the last. It supports arbitrary recorded or synthetic mobility, e.g.
// slowing for a light mid-array.
type WaypointTrace struct {
	points []Waypoint
}

// NewWaypointTrace builds a trace from waypoints, which must be in
// non-decreasing time order. Consecutive waypoints that share a timestamp
// and a position — zero-duration segments, such as a traffic-light dwell
// that turned out to be zero — are coalesced into one point, so the
// interpolators never divide by a zero time delta. Same-time waypoints at
// different positions are rejected: a teleport has no finite velocity.
func NewWaypointTrace(points []Waypoint) (*WaypointTrace, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("mobility: waypoint trace needs at least one point")
	}
	cp := make([]Waypoint, 0, len(points))
	cp = append(cp, points[0])
	for _, p := range points[1:] {
		prev := cp[len(cp)-1]
		if p.At < prev.At {
			return nil, fmt.Errorf("mobility: waypoints must be sorted by time")
		}
		if p.At == prev.At {
			if p.Pos != prev.Pos {
				return nil, fmt.Errorf("mobility: two waypoints at %v with different positions (teleport)", p.At)
			}
			continue // zero-duration segment: keep one point
		}
		cp = append(cp, p)
	}
	return &WaypointTrace{points: cp}, nil
}

// Position implements Trace.
func (w *WaypointTrace) Position(t sim.Time) Point {
	pts := w.points
	if t <= pts[0].At {
		return pts[0].Pos
	}
	last := pts[len(pts)-1]
	if t >= last.At {
		return last.Pos
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].At > t }) // first point after t
	a, b := pts[i-1], pts[i]
	frac := float64(t-a.At) / float64(b.At-a.At)
	return a.Pos.Add(b.Pos.Sub(a.Pos).Scale(frac))
}
