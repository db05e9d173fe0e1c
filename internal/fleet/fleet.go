// Package fleet deploys many independent WGTT corridor cells — the §7
// "large area deployment" question taken to a transit-network scale. Each
// cell is a complete, isolated simulation (its own sim.Engine, radio
// channel, APs, controller, and vehicles, assembled via core.Build); the
// fleet engine schedules cells across a bounded worker pool and merges the
// per-cell results into one deployment report.
//
// Determinism contract: every per-cell quantity is derived from the pair
// (fleet seed, cell index) alone — the cell's scenario seed, its Poisson
// vehicle arrivals, the speed and workload of every vehicle. Cells share
// no mutable state, and results land in a slice slot owned by the cell
// index, so the aggregate report is byte-identical no matter how many
// workers run the cells or how the scheduler interleaves them. See
// DESIGN.md §8.
package fleet

import (
	"fmt"
	"math"

	"wgtt/internal/chaos"
	"wgtt/internal/mobility"
	"wgtt/internal/sim"
	"wgtt/internal/urban"
)

// Config describes a fleet deployment. DefaultConfig states its defaults
// once; Run, RunCell, PlanCell and RunMetro fill in none.
type Config struct {
	// Cells is the number of corridor cells to deploy.
	Cells int
	// Seed is the fleet master seed; all per-cell randomness derives from
	// (Seed, cell index).
	Seed uint64
	// Workers bounds simulation concurrency (<= 1 runs sequentially).
	// Worker count never affects results, only wall-clock time.
	Workers int

	// APsPerCell is the corridor length in APs (8 is the testbed).
	APsPerCell int
	// SpacingM is the AP spacing in meters (7.5 is Fig. 9's mean).
	SpacingM float64

	// ArrivalsPerMin is the Poisson vehicle arrival rate per corridor.
	// Vehicles arrive over ArrivalWindow; the first vehicle always arrives
	// at t=0 so no cell is empty.
	ArrivalsPerMin float64
	// ArrivalWindow is how long each cell admits vehicles.
	ArrivalWindow sim.Time
	// MaxVehicles caps per-cell vehicle count (simulation cost grows
	// quadratically with co-channel stations).
	MaxVehicles int
	// SpeedsMPH is the speed mix vehicles draw from, uniformly.
	SpeedsMPH []float64
	// TCPFraction of vehicles carry a bulk downlink TCP workload; the rest
	// carry a CBR downlink UDP flow. 0 is an all-UDP fleet.
	TCPFraction float64
	// UDPRateMbps is the offered CBR load of UDP vehicles.
	UDPRateMbps float64

	// TraceDir, when non-empty, writes one JSONL event trace per cell
	// (cell-0000.jsonl, …) via internal/trace.
	TraceDir string

	// Metrics enables per-cell observability recording (internal/metrics):
	// each cell gets its own registry and reports a snapshot on
	// CellResult.Metrics. Purely additive — the deployment report text is
	// unchanged, preserving the byte-identical determinism contract.
	Metrics bool

	// Domains shards each cell's controller tier (DESIGN.md §13): the
	// cell's APs split into this many contiguous domains, each run by its
	// own controller instance, and vehicles are handed off between
	// controllers as they drive across domain boundaries. 0 or 1 keeps the
	// single-controller cell. Federation keeps the determinism contract:
	// reports are byte-identical for any worker count.
	Domains int

	// Chaos injects deterministic faults into every cell (DESIGN.md §11).
	// Each cell derives its own fault plan from its (fleet seed, cell
	// index)-derived scenario seed, so chaos keeps the determinism
	// contract: reports are byte-identical for any worker count. nil
	// disables injection and leaves the report format untouched.
	Chaos *chaos.Config

	// Urban switches every cell from a straight corridor to a street-grid
	// city (DESIGN.md §16): the cell's APs line its streets, and its
	// traffic — buses with rider groups, routed cars, pedestrians — comes
	// from the urban planner instead of the Poisson corridor arrivals.
	// Each cell draws its own city from its (fleet seed, cell index) seed.
	// nil keeps corridor cells and the report byte-identical to pre-urban
	// builds.
	Urban *urban.Config

	// Metro switches the fleet from N independent cells to one connected
	// city (DESIGN.md §17): a single urban.Graph tiled into metro cells,
	// each tile its own core.Network advancing in lockstep epochs, with
	// clients migrating between tile simulations as their routes cross tile
	// seams. Run via RunMetro, not Run. Mutually exclusive with Urban,
	// Domains and Chaos (each tile is a single-domain cell).
	Metro *urban.MetroConfig
	// MetroIsolated cuts the seams (the ext-metro ablation): every client
	// lives only in its first tile's simulation for the whole horizon, so a
	// vehicle that drives out of its birth tile just recedes from that
	// tile's APs — the pre-metro "N isolated cells" behavior on the same
	// city. No migrations happen.
	MetroIsolated bool

	// Progress, when non-nil, is called after each unit of work completes:
	// (cells done, cells total) for Run, (epochs done, epochs total) for
	// RunMetro. Calls are serialized but may come from worker goroutines;
	// keep the hook fast. Purely observational — it must not influence
	// results.
	Progress func(done, total int)
}

// federatedDomains reports how many controller domains each cell runs: a
// city cell's slabs when Urban is set, else the corridor Domains knob.
// 0 or 1 means a single controller.
func (c Config) federatedDomains() int {
	if c.Urban != nil {
		return c.Urban.Domains
	}
	return c.Domains
}

// marginM is the entry/exit margin around a corridor's AP array in meters,
// the same 10 m the single-corridor drives use (core.DriveScenario).
const marginM float64 = 10

// samplePeriod paces the switching-accuracy oracle sampling (Table 2).
const samplePeriod = 50 * sim.Millisecond

// minHeadwayS is the minimum inter-arrival gap in seconds — the
// car-following headway that keeps two vehicles from entering the
// corridor virtually co-located.
const minHeadwayS = 1.5

// DefaultConfig is one corridor cell of the testbed's shape — 8 APs 7.5 m
// apart — under 6 vehicles a minute for 20 s, at most 4 at once, drawing
// 15/25/35 mph, half on TCP and the rest on 20 Mb/s UDP.
func DefaultConfig() Config {
	return Config{
		Cells:          1,
		APsPerCell:     8,
		SpacingM:       7.5,
		ArrivalsPerMin: 6,
		ArrivalWindow:  20 * sim.Second,
		MaxVehicles:    4,
		SpeedsMPH:      []float64{15, 25, 35},
		TCPFraction:    0.5,
		UDPRateMbps:    20,
	}
}

// Vehicle is one planned drive through a cell.
type Vehicle struct {
	// Arrival is when the vehicle crosses the corridor entry point; it
	// approaches from up the road at constant speed before that.
	Arrival sim.Time
	// SpeedMPH is the vehicle's constant speed.
	SpeedMPH float64
	// TCP selects the workload: bulk downlink TCP when true, CBR downlink
	// UDP otherwise.
	TCP bool
}

// CellPlan is everything a cell run is parameterized by. It is a pure
// function of (fleet seed, cell index) — the heart of the determinism
// contract.
type CellPlan struct {
	Seed     uint64 // scenario seed for core.Build
	Vehicles []Vehicle
	// Duration is the cell horizon: the last vehicle's exit plus a tail.
	Duration sim.Time
}

// PlanCell derives cell's plan from the fleet configuration. Randomness
// comes from named sim.RNG streams of the fleet seed, so neither worker
// scheduling nor other cells' draws can perturb it.
func PlanCell(cfg Config, cell int) CellPlan {
	frng := sim.NewRNG(cfg.Seed)
	plan := CellPlan{Seed: frng.Stream(fmt.Sprintf("fleet/cell/%d/seed", cell)).Uint64()}
	if cfg.Urban != nil {
		// Urban cells draw their traffic from the city planner under the
		// cell seed; the corridor arrival process does not apply.
		return plan
	}
	arr := frng.Stream(fmt.Sprintf("fleet/cell/%d/arrivals", cell))
	lambda := cfg.ArrivalsPerMin / 60 // arrivals per second
	transit := func(speedMPH float64) sim.Time {
		span := float64(cfg.APsPerCell-1) * cfg.SpacingM
		return sim.FromSeconds((span + 2*marginM) / mobility.MPH(speedMPH))
	}
	at := sim.Time(0) // first vehicle enters immediately: no empty cells
	for at <= cfg.ArrivalWindow && len(plan.Vehicles) < cfg.MaxVehicles {
		v := Vehicle{
			Arrival:  at,
			SpeedMPH: cfg.SpeedsMPH[arr.IntN(len(cfg.SpeedsMPH))],
			TCP:      arr.Float64() < cfg.TCPFraction,
		}
		plan.Vehicles = append(plan.Vehicles, v)
		if exit := v.Arrival + transit(v.SpeedMPH); exit > plan.Duration {
			plan.Duration = exit
		}
		gap := arr.ExpFloat64() / lambda
		if gap < minHeadwayS {
			// Real traffic keeps a car-following headway; without it two
			// Poisson draws can put vehicles virtually on top of each
			// other at the corridor entrance.
			gap = minHeadwayS
		}
		if math.IsInf(gap, 0) || gap > cfg.ArrivalWindow.Seconds() {
			// One pathological draw must not stretch the horizon forever.
			gap = cfg.ArrivalWindow.Seconds()
		}
		at += sim.FromSeconds(gap)
	}
	plan.Duration += 2 * sim.Second // drain tail, as in the paper's drives
	return plan
}
