// Package core assembles the full WGTT system — radio channel, 802.11 MAC,
// APs, controller, backhaul, clients, and transport flows — into runnable
// scenarios, and likewise assembles the Enhanced 802.11r baseline on the
// same substrate so the two are compared apples-to-apples, as in §5.
package core

import (
	"math"

	"wgtt/internal/chaos"
	"wgtt/internal/controller"
	"wgtt/internal/mobility"
	"wgtt/internal/selector"
	"wgtt/internal/sim"
	"wgtt/internal/urban"
)

// Mode selects the system under test.
type Mode int

// The two systems of the evaluation.
const (
	// ModeWGTT runs the paper's system: controller-driven millisecond
	// switching with cyclic-queue fanout.
	ModeWGTT Mode = iota
	// ModeBaseline runs Enhanced 802.11r (§5.1).
	ModeBaseline
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModeBaseline {
		return "enhanced-802.11r"
	}
	return "wgtt"
}

// ClientSpec describes one mobile client.
type ClientSpec struct {
	Trace mobility.Trace
	// SpeedMPH is the client's design speed (sets the fading Doppler).
	SpeedMPH float64
	// Deferred builds the client's radio and MAC state but admits it to the
	// network later: no keepalives and no controller-tier admission at build
	// time. The metro uses this for clients whose route only enters this
	// cell mid-run — AdmitCellHandoff (metro.go) performs the deferred
	// admission when the client migrates in. WGTT mode only.
	Deferred bool
}

// Scenario is a complete experiment description.
type Scenario struct {
	Mode Mode
	Seed uint64
	// Duration of the run.
	Duration sim.Time

	// APPositions along the road; nil uses the testbed layout (Fig. 9).
	APPositions []mobility.Point

	Clients []ClientSpec

	// Controller overrides the WGTT controller config when non-nil.
	Controller *controller.Config
	// Policy overrides the AP-selection policy (DESIGN.md §15); "" keeps
	// the controller config's, by default §3.1.1 windowed-median. Setting
	// this on top of Controller replaces only its Policy.
	Policy selector.Policy

	// NoBAForwarding turns §3.2.1 Block ACK forwarding off (ablation).
	NoBAForwarding bool
	// NoUplinkDiversity makes only the serving WGTT AP forward uplink
	// packets (ablation of the §3.2.2 multi-AP path).
	NoUplinkDiversity bool

	// OmniAPs replaces the parabolic antennas with small-cell
	// omnidirectional ones (the §4.2 variant the paper says the
	// hardware-agnostic design supports).
	OmniAPs bool
	// Channels spreads the APs across this many non-interfering wireless
	// channels, round-robin (§7's multi-channel discussion). 0 or 1 keeps
	// the paper's single-channel deployment. Clients retune to the serving
	// AP's channel on each switch, and APs can only overhear clients on
	// their own channel — which is exactly the trade-off §7 predicts.
	Channels int
	// Domains shards the controller tier (DESIGN.md §13): the APs are split
	// into this many contiguous domains, each owned by its own controller
	// instance, and clients are handed off between controllers as they
	// cross domain boundaries. 0 or 1 keeps the single-controller
	// deployment, byte-identical to builds without the federation layer.
	// WGTT mode only; incompatible with Channels > 1 (the probe plane
	// assumes one controller).
	Domains int
	// Chaos enables deterministic fault injection (DESIGN.md §11): a fault
	// plan is derived from the scenario seed, the AP health monitor is
	// switched on (WithHealth), and the injector replays the plan during the
	// run. nil — the default — leaves the network untouched and
	// byte-identical to a build without the chaos engine. WGTT mode only.
	Chaos *chaos.Config
	// City is the street-grid city plan UrbanScenario cut this scenario
	// from (DESIGN.md §16), nil for any other scenario. Build reads only
	// its planner counts, which EnableMetrics records.
	City *urban.Plan
	// APDomains explicitly binds each active AP to a federation domain,
	// overriding the default contiguous-index split. Must cover every
	// active AP with every domain in [0, Domains) owning at least one AP.
	// UrbanScenario fills this from the city's slabs.
	APDomains []int

	// The rest of what makes a cell a city cell; only applyCityDefaults sets
	// these, and their zero values keep the corridor testbed's: the radio
	// obstruction model (none), the per-AP fixed RF loss chain
	// (apFixedLossDB), the clients' null-data CSI probe pace
	// (corridorKeepalive) and the cross-domain handoff gates
	// (federation.DefaultConfig's margin and dwell).
	obstruction   func(a, b mobility.Point) float64
	apLossDB      float64
	keepalive     sim.Time
	handoffMargin float64
	handoffDwell  sim.Time
}

// UrbanScenario plans a street-grid city (DESIGN.md §16) and returns it
// as an explicit scenario under the given mode: AP sites along every
// street, the planned vehicle/bus/pedestrian clients, the plan's horizon
// and — in WGTT mode with cfg.Domains > 1 — the city's slabs as the
// federation binding. Baseline mode runs the identical city — same graph,
// same APs, same traces — with the binding ignored, so the two systems
// compare on one map.
func UrbanScenario(mode Mode, cfg urban.Config, seed uint64) (Scenario, error) {
	plan, err := urban.BuildPlan(cfg, seed)
	if err != nil {
		return Scenario{}, err
	}
	clients := make([]ClientSpec, len(plan.Clients))
	for i, c := range plan.Clients {
		clients[i] = ClientSpec{Trace: c.Trace, SpeedMPH: c.SpeedMPH}
	}
	s := CityCellScenario(mode, plan.Graph, seed, plan.Duration, plan.APPositions(), clients)
	s.City = plan
	if mode == ModeWGTT && cfg.Domains > 1 {
		s.Domains, s.APDomains = cfg.Domains, plan.APDomains
	}
	return s, nil
}

// CityCellScenario builds a scenario for a piece of a city: the caller
// supplies the sites and the clients — a whole planned city
// (UrbanScenario), or a metro tile's cut of one shared city plan (DESIGN.md
// §17) — and the city defaults supply the rest.
func CityCellScenario(mode Mode, g *urban.Graph, seed uint64, dur sim.Time, aps []mobility.Point, clients []ClientSpec) Scenario {
	s := Scenario{Mode: mode, Seed: seed, Duration: dur, APPositions: aps, Clients: clients}
	s.applyCityDefaults(g)
	return s
}

// applyCityDefaults is the one statement of what makes a cell a city cell
// (DESIGN.md §16); CityCellScenario is its one caller, and a Controller
// set on the result replaces the default one.
func (s *Scenario) applyCityDefaults(g *urban.Graph) {
	// Street-canyon blockage: the city's buildings make radio visibility
	// follow the streets, so an AP around a corner is tens of dB down on a
	// same-street one. Both systems see the identical map.
	s.obstruction = g.BlockageDB
	s.OmniAPs = true // curbside small cells, not roadside parabolics
	s.apLossDB = curbsideLossDB
	// A city cell carries an order of magnitude more stations than the
	// corridor testbed; at the paper's 5 ms null-data pace the probes alone
	// would eat the shared medium. 20 ms keeps several samples inside the
	// city-scale selection window below while freeing the airtime for
	// traffic — applied to both systems.
	s.keepalive = 20 * sim.Millisecond
	if s.Mode == ModeWGTT {
		// Omni micro-cells have much flatter ESNR gradients than the
		// corridor's parabolics, so the §3.1.1 zero-margin/40 ms defaults
		// flap between near-equal neighbors. A longer median window, a real
		// challenger margin, and a street-scale dwell keep switches
		// meaningful; the CollapseDB escape lets corner-turn collapses
		// through the dwell immediately.
		cc := controller.DefaultConfig()
		cc.Window = 100 * sim.Millisecond
		cc.MedianMarginDB = 6
		cc.Hysteresis = 500 * sim.Millisecond
		cc.CollapseDB = 18
		s.Controller = &cc
	}
	// Same story at the federation layer: a slab boundary cuts straight
	// across city avenues, so riders hover near it for whole blocks. A real
	// cross-domain margin and a block-scale dwell stop ownership ping-pong.
	// A one-domain city never weighs a handoff, so they only bind on slabs.
	s.handoffMargin = 6
	s.handoffDwell = sim.Second
}

// DriveScenario is a convenience builder: one client driving the full
// testbed at speedMPH under the given mode.
func DriveScenario(mode Mode, speedMPH float64, seed uint64) Scenario {
	aps := mobility.DefaultAPPositions()
	if speedMPH > 0 {
		return TransitScenario(mode, aps, speedMPH, seed)
	}
	// Static client parked in AP2's cell (the paper's 0 mph point).
	parked := mobility.Stationary{At: mobility.Point{X: aps[1].X, Y: mobility.LaneY}}
	return Scenario{
		Mode:     mode,
		Seed:     seed,
		Duration: 10 * sim.Second,
		Clients:  []ClientSpec{{Trace: parked, SpeedMPH: speedMPH}},
	}
}

// TransitScenario is one client driving past the APs at aps at speedMPH,
// entering 10 m before the first and leaving 10 m past the last, with 2 s
// of trailing time.
func TransitScenario(mode Mode, aps []mobility.Point, speedMPH float64, seed uint64) Scenario {
	const margin = 10.0
	return Scenario{
		Mode:        mode,
		Seed:        seed,
		Duration:    mobility.TransitDuration(aps, speedMPH, margin) + 2*sim.Second,
		APPositions: aps,
		Clients:     []ClientSpec{{Trace: mobility.TransitDrive(aps, speedMPH, margin), SpeedMPH: speedMPH}},
	}
}

// MultiClientScenario builds an n-client pattern drive (Figs. 17–20).
func MultiClientScenario(mode Mode, pattern mobility.Pattern, n int, speedMPH float64, seed uint64) Scenario {
	aps := mobility.DefaultAPPositions()
	margin := 10.0
	traces := mobility.PatternTraces(pattern, n, aps, speedMPH, margin)
	specs := make([]ClientSpec, n)
	for i, tr := range traces {
		specs[i] = ClientSpec{Trace: tr, SpeedMPH: speedMPH}
	}
	return Scenario{
		Mode:     mode,
		Seed:     seed,
		Duration: mobility.TransitDuration(aps, speedMPH, margin) + 2*sim.Second,
		Clients:  specs,
	}
}

// apBoresight is the antenna orientation: straight across the road.
const apBoresight = -math.Pi / 2

// Default radio endpoint powers and losses (§4, calibrated in DESIGN.md).
const (
	apTxPowerDBm     = 17
	clientTxPowerDBm = 15
	apFixedLossDB    = 24 // splitter + cabling + window penetration
	// Urban curbside small cells skip the testbed's splitter/window chain —
	// a pole-mount install keeps only a short cable run (DESIGN.md §16).
	curbsideLossDB = 6
)

// nearestAP returns the index (within the active set) of the AP closest to
// the client's position at time zero.
func nearestAP(positions []mobility.Point, p mobility.Point) int {
	best, bestD := 0, math.Inf(1)
	for i, ap := range positions {
		if d := ap.Distance(p); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// corridorKeepalive paces the clients' null-data CSI probes on the corridor
// testbed (DESIGN.md §6).
const corridorKeepalive = 5 * sim.Millisecond

// backhaulLatency is the one-way latency of the switched Ethernet LAN (§4).
const backhaulLatency = 200 * sim.Microsecond
