package fleet

import (
	"fmt"
	"os"

	"wgtt/internal/chaos"
	"wgtt/internal/controller"
	"wgtt/internal/core"
	"wgtt/internal/federation"
	"wgtt/internal/metrics"
	"wgtt/internal/mobility"
	"wgtt/internal/sim"
	"wgtt/internal/trace"
	"wgtt/internal/urban"
)

// CellResult is what one cell — a corridor, a city, or a metro tile —
// reports back to the fleet.
type CellResult struct {
	Cell     int
	Seed     uint64
	Vehicles int
	TCPFlows int
	UDPFlows int
	// DurationS is the cell horizon in seconds.
	DurationS float64

	// AggMbps is the cell's delivered capacity: all goodput bytes (Bytes)
	// over the cell horizon (the per-cell capacity budget of the Zhang et
	// al. kernel-AP measurements, aggregated fleet-wide in the report).
	AggMbps float64
	Bytes   uint64
	// PerVehicleBytes is each vehicle's goodput; PerVehicleMbps is the same
	// over the vehicle's own transit window.
	PerVehicleBytes []uint64
	PerVehicleMbps  []float64
	// UDPLoss, UDPSent and UDPReceived are the loss fraction and datagram
	// counts of each UDP vehicle's flow, in vehicle order.
	UDPLoss              []float64
	UDPSent, UDPReceived []uint64
	// AccuracyPct is the fraction of oracle samples where the serving AP
	// was the ESNR-optimal one (Table 2's metric, per cell).
	AccuracyPct float64
	// AirtimePct is the primary medium's utilization.
	AirtimePct float64

	// The cell's subsystem counters, carried as the subsystems keep them.
	// Ctl sums the controller plane (switches, CSI, uplink dedup, §11
	// failure recovery); Fed is zero without cfg.Domains > 1 (DESIGN.md
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

// workload is one client's traffic through a cell.
type workload struct {
	// TCP selects bulk downlink TCP; CBR downlink UDP otherwise.
	TCP bool
	// Start is when the flow begins sending.
	Start sim.Time
	// Window is the span the client's goodput is taken over.
	Window sim.Time
	// Deferred attaches the flow but leaves it stopped: the client is
	// admitted, and its flow resumed, mid-run (metro migration).
	Deferred bool
}

// udpWorkloads gives n clients a CBR downlink flow for the whole horizon.
func udpWorkloads(n int, horizon sim.Time) []workload {
	work := make([]workload, n)
	for i := range work {
		work[i].Window = horizon
	}
	return work
}

// cell is one built network under the fleet's harness — the single
// attach → run → harvest path every kind of cell goes through. attachCell
// wires the workloads, the oracle and the trace recorder; the caller
// advances the network (Run for a standalone cell, lockstep RunUntil epochs
// for a metro tile); harvest reads the outcome.
type cell struct {
	net  *core.Network
	work []workload
	// udp and tcp hold each client's flow (one of the two is nil).
	udp []*core.DownUDP
	tcp []*core.DownTCP

	match, total int // oracle samples
	rec          *trace.Recorder
	traceFile    *os.File
	res          CellResult
}

// attachCell puts a built network under the harness: one downlink flow per
// client (work[i] is client i's), the Table-2 oracle when asked for, and
// the per-cell trace when cfg.TraceDir is set.
func attachCell(cfg Config, id int, n *core.Network, work []workload, oracle bool) (*cell, error) {
	if cfg.Metrics {
		n.EnableMetrics()
	}
	c := &cell{
		net:  n,
		work: work,
		udp:  make([]*core.DownUDP, len(work)),
		tcp:  make([]*core.DownTCP, len(work)),
		res: CellResult{
			Cell:      id,
			Seed:      n.Scenario.Seed,
			Vehicles:  len(work),
			DurationS: n.Scenario.Duration.Seconds(),
		},
	}
	for i, w := range work {
		var start func()
		if w.TCP {
			c.tcp[i] = n.AddDownlinkTCP(i, 0, nil)
			c.res.TCPFlows++
			start = c.tcp[i].Sender.Start
		} else {
			c.udp[i] = n.AddDownlinkUDP(i, cfg.UDPRateMbps, 1400)
			c.res.UDPFlows++
			start = c.udp[i].Sender.Start
		}
		if !w.Deferred {
			n.Eng.At(w.Start, start)
		}
	}

	if oracle {
		// Switching-accuracy oracle: sample every client against the
		// ground-truth best-ESNR AP (Table 2's methodology, fleet-wide).
		n.Every(cfg.SamplePeriod, func(at sim.Time) {
			for ci := range n.Clients {
				best, bestE := n.BestESNRAP(ci, at)
				if bestE < 0 {
					continue // out of everyone's range: no meaningful optimum
				}
				c.total++
				if n.ServingAP(ci) == best {
					c.match++
				}
			}
		})
	}

	if cfg.TraceDir != "" {
		f, err := os.Create(tracePath(cfg, id))
		if err != nil {
			return nil, fmt.Errorf("fleet: cell %d trace: %w", id, err)
		}
		c.traceFile = f
		c.rec = trace.NewRecorder(f)
		n.AttachRecorder(c.rec)
		c.res.TraceFile = f.Name()
	}
	return c, nil
}

// closeTrace releases the trace file of a cell that will not be harvested.
func (c *cell) closeTrace() {
	if c.traceFile != nil {
		c.traceFile.Close()
	}
}

// harvest reads the finished cell's outcome and completes its trace.
func (c *cell) harvest() (CellResult, error) {
	n, res := c.net, &c.res
	for i, w := range c.work {
		var b uint64
		if f := c.udp[i]; f != nil {
			b = f.Receiver.Bytes
			res.UDPLoss = append(res.UDPLoss, f.Receiver.LossRate())
			res.UDPSent = append(res.UDPSent, f.Sender.Sent)
			res.UDPReceived = append(res.UDPReceived, f.Receiver.Received)
		} else {
			b = c.tcp[i].Receiver.DeliveredBytes
		}
		res.Bytes += b
		res.PerVehicleBytes = append(res.PerVehicleBytes, b)
		res.PerVehicleMbps = append(res.PerVehicleMbps, mbps(b, w.Window))
	}
	res.AggMbps = mbps(res.Bytes, n.Scenario.Duration)
	if c.total > 0 {
		res.AccuracyPct = 100 * float64(c.match) / float64(c.total)
	}
	res.AirtimePct = 100 * n.Medium.Utilization()
	res.Ctl = n.CtlStats()
	res.Fed = n.FedStats()
	if n.Chaos != nil {
		res.Chaos = n.Chaos.Stats
	}
	if n.Urban != nil {
		res.Urban = n.Urban.Stats
	}
	if c.rec != nil {
		err := c.rec.Flush()
		if cerr := c.traceFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return CellResult{}, fmt.Errorf("fleet: cell %d trace: %w", res.Cell, err)
		}
		res.TraceEvents = c.rec.N
	}
	if n.Metrics != nil {
		snap := n.Metrics.Snapshot()
		res.Metrics = &snap
	}
	return *res, nil
}

// mbps is bytes of goodput over a time span, in Mb/s (0 for an empty span).
func mbps(bytes uint64, over sim.Time) float64 {
	if over <= 0 {
		return 0
	}
	return float64(bytes) * 8 / 1e6 / over.Seconds()
}

// RunCell plans, builds, and runs one cell — a corridor, or a street-grid
// city when cfg.Urban is set — to completion. It is safe to call
// concurrently for different cells: everything it touches is local to the
// cell.
func RunCell(cfg Config, cell int) (CellResult, error) {
	cfg = cfg.withDefaults()
	plan := PlanCell(cfg, cell)
	var s core.Scenario
	var work []workload
	if cfg.Urban != nil {
		// The cell's whole city — graph, AP deployment, bus lines, cars,
		// pedestrians — derives from the cell's scenario seed, so urban
		// fleets keep the byte-identical-report determinism contract.
		s = core.UrbanScenario(core.ModeWGTT, *cfg.Urban, plan.Seed)
	} else {
		s, work = corridorScenario(cfg, plan)
	}
	s.Chaos = cfg.Chaos
	s.Selector = cfg.Selector
	n, err := core.Build(s)
	if err != nil {
		return CellResult{}, fmt.Errorf("fleet: cell %d: %w", cell, err)
	}
	if cfg.Urban != nil {
		// Build expanded the city into clients: every one carries a CBR
		// downlink UDP flow for the full horizon (riders and pedestrians are
		// receivers too; there is no TCP mix on the city workload).
		work = udpWorkloads(len(n.Clients), n.Scenario.Duration)
	}
	c, err := attachCell(cfg, cell, n, work, true)
	if err != nil {
		return CellResult{}, err
	}
	n.Run()
	return c.harvest()
}

// corridorScenario turns a corridor cell plan into its scenario and the
// vehicles' workloads, each starting when its vehicle enters.
func corridorScenario(cfg Config, plan CellPlan) (core.Scenario, []workload) {
	positions := mobility.DenseArray(cfg.APsPerCell, 5, cfg.SpacingM)
	minX, _ := mobility.ArraySpan(positions)
	s := core.Scenario{
		Mode:        core.ModeWGTT,
		Seed:        plan.Seed,
		Duration:    plan.Duration,
		APPositions: positions,
		Domains:     cfg.Domains,
	}
	work := make([]workload, len(plan.Vehicles))
	for i, v := range plan.Vehicles {
		// Arrivals are approaching traffic: each vehicle starts far enough
		// up the road to cross the corridor entry point exactly at its
		// arrival time. (Parking waiting vehicles at the entry point would
		// stack them at one coordinate, where they act as zero-distance
		// disturbers and kill the entering vehicle's link.)
		speedMS := mobility.MPH(v.SpeedMPH)
		drive := &mobility.LinearDrive{
			Start: mobility.Point{
				X: minX - cfg.MarginM - speedMS*v.Arrival.Seconds(),
				Y: mobility.LaneY,
			},
			Vel: mobility.Point{X: speedMS},
		}
		s.Clients = append(s.Clients, core.ClientSpec{Trace: drive, SpeedMPH: v.SpeedMPH})
		work[i] = workload{TCP: v.TCP, Start: v.Arrival, Window: plan.Duration - v.Arrival}
	}
	return s, work
}
