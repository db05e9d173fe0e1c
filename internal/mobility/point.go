// Package mobility models the road geometry and client motion of the WGTT
// testbed (§2, §4.2): a straight transit corridor with APs deployed
// alongside it at the §4.2 deployment's ~7.5 m mean spacing and vehicular
// clients driving past at the 0–35 mph speeds of the §5 drives. Traces
// report position as a pure function of virtual time, so the radio layer
// can sample them at arbitrary (millisecond) granularity.
package mobility

import (
	"fmt"
	"math"
)

// Point is a position in the road plane, in meters. X runs along the road
// (direction of travel), Y across it (from the curb toward the AP side).
type Point struct {
	X, Y float64
}

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p − q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Distance returns the Euclidean distance between p and q.
func (p Point) Distance(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// AngleTo returns the bearing, in radians, of the vector from p to q,
// measured counter-clockwise from the +X axis.
func (p Point) AngleTo(q Point) float64 { return math.Atan2(q.Y-p.Y, q.X-p.X) }

// String renders the point for debugging.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// MetersPerSecondPerMPH converts miles-per-hour into meters-per-second.
const MetersPerSecondPerMPH = 0.44704

// MPH converts a speed in miles per hour to meters per second. The paper
// quotes every experiment speed in mph (5–35 mph); simulation code works in
// SI units.
func MPH(v float64) float64 { return v * MetersPerSecondPerMPH }
