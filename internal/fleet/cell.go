package fleet

import (
	"fmt"
	"path/filepath"

	"wgtt/internal/chaos"
	"wgtt/internal/controller"
	"wgtt/internal/core"
	"wgtt/internal/federation"
	"wgtt/internal/metrics"
	"wgtt/internal/mobility"
	"wgtt/internal/urban"
)

// CellResult is what one cell — a corridor, a city, or a metro tile —
// reports back to the fleet.
type CellResult struct {
	Cell     int
	Seed     uint64
	Vehicles int
	// DurationS is the cell horizon in seconds.
	DurationS float64

	// AggMbps is the cell's delivered capacity: all goodput bytes (Bytes)
	// over the cell horizon (the per-cell capacity budget of the Zhang et
	// al. kernel-AP measurements, aggregated fleet-wide in the report).
	AggMbps float64
	Bytes   uint64
	// Flows is each vehicle's flow as the drive harness read it, in vehicle
	// order: goodput over the vehicle's own transit window and, for UDP, the
	// datagram counts and loss fraction.
	Flows []core.Outcome
	// AccuracyPct is the fraction of oracle samples where the serving AP
	// was the ESNR-optimal one (Table 2's metric, per cell).
	AccuracyPct float64
	// AirtimePct is the primary medium's utilization.
	AirtimePct float64

	// The cell's subsystem counters, carried as the subsystems keep them.
	// Ctl sums the controller plane (switches, CSI, uplink dedup, §11
	// failure recovery); Fed is zero in a one-domain cell (DESIGN.md
	// §13), Chaos without cfg.Chaos (§11: what the injector did), Urban —
	// what the city planner generated — outside city cells (§16).
	Ctl   controller.Stats
	Fed   federation.Stats
	Chaos chaos.Stats
	Urban urban.Stats

	// TraceFile and TraceEvents are set when per-cell tracing is enabled.
	TraceFile   string
	TraceEvents int

	// Metrics is the cell's observability snapshot, set when cfg.Metrics is
	// enabled. It is kept out of Report rendering so the determinism
	// contract's byte-identical output is unaffected.
	Metrics *metrics.Snapshot
}

// cell is one built network under the drive harness (core.Drive) — the
// single attach → run → harvest path every kind of cell goes through.
// attachCell puts the loads on the network, plus the trace; the caller
// advances the network (Run for a standalone cell, lockstep RunUntil epochs
// for a metro tile); harvest maps the drive's outcome onto the fleet's
// CellResult.
type cell struct {
	drive *core.Drive
	res   CellResult
}

// attachCell puts a built network under the harness: one downlink flow per
// client (loads[i] is client i's) and the per-cell trace when cfg.TraceDir
// is set.
func attachCell(cfg Config, id int, n *core.Network, loads []core.Load) (*cell, error) {
	if cfg.Metrics {
		n.EnableMetrics()
	}
	c := &cell{
		drive: n.Attach(loads),
		res: CellResult{
			Cell:      id,
			Seed:      n.Scenario.Seed,
			Vehicles:  len(loads),
			DurationS: n.Scenario.Duration.Seconds(),
		},
	}
	if cfg.TraceDir != "" {
		c.res.TraceFile = filepath.Join(cfg.TraceDir, fmt.Sprintf("cell-%04d.jsonl", id))
		if err := c.drive.TraceTo(c.res.TraceFile); err != nil {
			return nil, fmt.Errorf("fleet: cell %d trace: %w", id, err)
		}
	}
	return c, nil
}

// harvest reads the finished cell's outcome and completes its trace.
func (c *cell) harvest() (CellResult, error) {
	n, res := c.drive.Net, &c.res
	res.Flows = c.drive.Outcomes()
	for _, f := range res.Flows {
		res.Bytes += f.Bytes
	}
	res.AggMbps = core.Mbps(res.Bytes, n.Scenario.Duration)
	res.AccuracyPct = c.drive.Accuracy()
	res.AirtimePct = 100 * n.Medium.Utilization()
	res.Ctl = n.CtlStats()
	res.Fed = n.FedStats()
	if n.Chaos != nil {
		res.Chaos = n.Chaos.Stats
	}
	if plan := n.Scenario.City; plan != nil {
		res.Urban = plan.Stats
	}
	var err error
	if res.TraceEvents, err = c.drive.Close(); err != nil {
		return CellResult{}, fmt.Errorf("fleet: cell %d trace: %w", res.Cell, err)
	}
	if n.Metrics != nil {
		// Recorded here, not by Network.Run: a metro tile reaches its
		// horizon through lockstep RunUntil epochs and never calls Run.
		n.Metrics.EndRun(int64(n.Scenario.Duration))
		snap := n.Metrics.Snapshot()
		res.Metrics = &snap
	}
	return *res, nil
}

// RunCell plans, builds, and runs one cell — a corridor, or a street-grid
// city when cfg.Urban is set — to completion. It is safe to call
// concurrently for different cells: everything it touches is local to the
// cell.
func RunCell(cfg Config, cell int) (CellResult, error) {
	plan := PlanCell(cfg, cell)
	var (
		s     core.Scenario
		loads []core.Load
		err   error
	)
	if cfg.Urban != nil {
		// The cell's whole city — graph, AP deployment, bus lines, cars,
		// pedestrians — derives from the cell's scenario seed, so urban
		// fleets keep the byte-identical-report determinism contract. Every
		// client carries a CBR downlink UDP flow for the full horizon
		// (riders and pedestrians are receivers too; there is no TCP mix on
		// the city workload).
		if s, err = core.UrbanScenario(core.ModeWGTT, *cfg.Urban, plan.Seed); err != nil {
			return CellResult{}, fmt.Errorf("fleet: cell %d: %w", cell, err)
		}
		loads = core.Loads(len(s.Clients), core.Load{RateMbps: cfg.UDPRateMbps})
	} else {
		s, loads = corridorScenario(cfg, plan)
	}
	s.Chaos = cfg.Chaos
	s.Policy = cfg.Policy
	n, err := core.Build(s)
	if err != nil {
		return CellResult{}, fmt.Errorf("fleet: cell %d: %w", cell, err)
	}
	c, err := attachCell(cfg, cell, n, loads)
	if err != nil {
		return CellResult{}, err
	}
	// Switching accuracy against the ESNR oracle, Table 2's metric per cell.
	c.drive.SampleOracle(samplePeriod, nil)
	n.RunUntil(n.Scenario.Duration) // not Run: harvest ends the metrics run
	return c.harvest()
}

// corridorScenario turns a corridor cell plan into its scenario and the
// vehicles' loads, each starting when its vehicle enters.
func corridorScenario(cfg Config, plan CellPlan) (core.Scenario, []core.Load) {
	positions := mobility.DenseArray(cfg.APsPerCell, 5, cfg.SpacingM)
	minX, _ := mobility.ArraySpan(positions)
	s := core.Scenario{
		Mode:        core.ModeWGTT,
		Seed:        plan.Seed,
		Duration:    plan.Duration,
		APPositions: positions,
		Domains:     cfg.Domains,
	}
	loads := make([]core.Load, len(plan.Vehicles))
	for i, v := range plan.Vehicles {
		// Arrivals are approaching traffic: each vehicle starts far enough
		// up the road to cross the corridor entry point exactly at its
		// arrival time. (Parking waiting vehicles at the entry point would
		// stack them at one coordinate, where they act as zero-distance
		// disturbers and kill the entering vehicle's link.)
		speedMS := mobility.MPH(v.SpeedMPH)
		drive := &mobility.LinearDrive{
			Start: mobility.Point{
				X: minX - marginM - speedMS*v.Arrival.Seconds(),
				Y: mobility.LaneY,
			},
			Vel: mobility.Point{X: speedMS},
		}
		s.Clients = append(s.Clients, core.ClientSpec{Trace: drive, SpeedMPH: v.SpeedMPH})
		loads[i] = core.Load{TCP: v.TCP, RateMbps: cfg.UDPRateMbps, Start: v.Arrival}
	}
	return s, loads
}
