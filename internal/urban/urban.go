// Package urban generates deterministic urban mobility workloads: a
// street-grid city graph with per-segment speed limits and curbside AP
// placement, routed vehicle traces with turn slowdowns and traffic-light
// dwell, buses carrying correlated rider groups (the §5.2 transit workload
// generalized from one straight corridor to a connected city), independent
// pedestrians, and a geographic partition binding that maps city slabs onto
// the §13 federation domains so routes cross controller boundaries at
// street level. Everything is a pure function of (config, seed) via named
// RNG streams, preserving the repo-wide byte-identical determinism
// contract (§7).
package urban

import "fmt"

// Config describes one urban scenario: the grid, the AP deployment, and
// the traffic mix. The zero value is not runnable; start from
// DefaultConfig.
type Config struct {
	// Rows, Cols are the intersection grid dimensions (≥ 2 each).
	Rows, Cols int
	// BlockM is the street-block edge length in meters.
	BlockM float64
	// APSpacingM spaces the curbside APs along every street segment.
	APSpacingM float64
	// Cars, Buses, Pedestrians size the traffic mix; each bus carries
	// RidersPerBus rider clients plus the bus gateway client itself.
	Cars         int
	Buses        int
	RidersPerBus int
	Pedestrians  int
	// Domains partitions the city into that many federation domains
	// (vertical slabs). 1 = single controller.
	Domains int
	// BusSpeedMPH is fixed per bus line; cars draw from carSpeedsMPH.
	// Segments cap these at their limit.
	BusSpeedMPH float64
	// MaxDurationS caps the scenario length in seconds; the plan otherwise
	// runs until the last route finishes plus a short tail.
	MaxDurationS float64
}

// DefaultConfig is a small two-avenue, three-street city: one bus line of
// ten riders, one car, two pedestrians, two federation domains, ~¼ of the
// paper's 25 m AP spacing corridor density along every block.
func DefaultConfig() Config {
	return Config{
		Rows: 2, Cols: 3,
		BlockM: 60, APSpacingM: 25,
		Cars: 1, Buses: 1, RidersPerBus: 10, Pedestrians: 2,
		Domains:      2,
		BusSpeedMPH:  15,
		MaxDurationS: 60,
	}
}

// Fixed city geometry and pace: curbside APs sit 6 m off the lane
// centerline (a sidewalk pole, half the §4.2 testbed's 12 m building
// setback), and pedestrians walk at 3 mph.
const (
	apSetbackM  = 6.0
	pedSpeedMPH = 3.0
)

// Validate rejects configs the planner cannot turn into a scenario.
func (c Config) Validate() error {
	if c.Rows < 2 || c.Cols < 2 {
		return fmt.Errorf("urban: grid needs at least 2x2 intersections, got %dx%d", c.Rows, c.Cols)
	}
	if c.BlockM <= 0 {
		return fmt.Errorf("urban: block length must be positive, got %g", c.BlockM)
	}
	if c.APSpacingM <= 0 {
		return fmt.Errorf("urban: AP spacing must be positive, got %g", c.APSpacingM)
	}
	if c.Cars < 0 || c.Buses < 0 || c.RidersPerBus < 0 || c.Pedestrians < 0 {
		return fmt.Errorf("urban: traffic counts must be non-negative")
	}
	if c.Cars+c.Buses+c.Pedestrians == 0 {
		return fmt.Errorf("urban: scenario needs at least one car, bus, or pedestrian")
	}
	if c.Domains < 1 {
		return fmt.Errorf("urban: need at least one domain, got %d", c.Domains)
	}
	if c.Buses > 0 && c.BusSpeedMPH <= 0 {
		return fmt.Errorf("urban: bus speed must be positive, got %g mph", c.BusSpeedMPH)
	}
	if c.MaxDurationS <= 0 {
		return fmt.Errorf("urban: max duration must be positive, got %g s", c.MaxDurationS)
	}
	return nil
}
