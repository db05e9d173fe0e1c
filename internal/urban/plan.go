package urban

import (
	"fmt"
	"math/rand/v2"

	"wgtt/internal/mobility"
	"wgtt/internal/sim"
)

// ClientKind tells what a planned client is riding in (or walking on).
type ClientKind int

// Client kinds, in the order clients appear in a plan.
const (
	KindBus ClientKind = iota // the bus gateway client itself
	KindRider
	KindCar
	KindPedestrian
)

// String names the kind for reports.
func (k ClientKind) String() string {
	switch k {
	case KindBus:
		return "bus"
	case KindRider:
		return "rider"
	case KindCar:
		return "car"
	case KindPedestrian:
		return "pedestrian"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ClientPlan is one client of the urban scenario: its trace, what it rides
// in, and (for vehicles) the node route it follows.
type ClientPlan struct {
	Kind ClientKind
	// Bus is the bus index for KindBus/KindRider clients, -1 otherwise.
	Bus int
	// Trace is the client's mobility, a pure function of time.
	Trace mobility.Trace
	// SpeedMPH is the design speed (segments may cap it lower).
	SpeedMPH float64
	// Route is the intersection path of the underlying vehicle (nil for
	// riders, who share their bus's route).
	Route []int
}

// Stats tallies what the planner generated; the tagged counts are the urban
// component's metrics counters.
type Stats struct {
	Turns          uint64 `metric:"turns"`       // sharp corners driven across all vehicles
	LightStops     uint64 `metric:"light_stops"` // red-light dwells inserted
	DwellS         float64
	RouteCrossings uint64 `metric:"route_crossings"` // inter-domain boundary crossings along routes
	Buses          uint64 `metric:"buses"`
	Riders         uint64 `metric:"riders"`
	Cars           uint64 `metric:"cars"`
	Pedestrians    uint64 `metric:"pedestrians"`
}

// Plan is a fully expanded urban scenario: the city, the AP deployment
// with its domain binding, and every client trace. It is a pure function
// of (Config, seed).
type Plan struct {
	Cfg       Config
	Graph     *Graph
	APs       []APSite
	APDomains []int
	Clients   []ClientPlan
	Duration  sim.Time
	Stats     Stats
}

// APPositions returns just the AP coordinates, in site order.
func (p *Plan) APPositions() []mobility.Point {
	pos := make([]mobility.Point, len(p.APs))
	for i, s := range p.APs {
		pos[i] = s.Pos
	}
	return pos
}

// BuildPlan expands a config into a concrete city plan. All randomness
// comes from named streams of seed — edge limits, light phases, bus lines,
// car origin/destination pairs, rider seats, walk paths — so the same
// (config, seed) yields the same plan regardless of who builds it or how
// many workers run beside it.
func BuildPlan(cfg Config, seed uint64) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g, err := NewGrid(cfg.Rows, cfg.Cols, cfg.BlockM, seed)
	if err != nil {
		return nil, err
	}
	p := &Plan{Cfg: cfg, Graph: g, APs: g.PlaceAPs(cfg.APSpacingM, apSetbackM)}
	// Federation domains are the city's vertical slabs, its 1×Domains tiling:
	// contiguous geography — not contiguous AP indices — decides ownership,
	// so a vehicle crossing an avenue mid-block really does cross a
	// controller boundary.
	slabs := Tiling{Rows: 1, Cols: cfg.Domains}
	for _, s := range p.APs {
		p.APDomains = append(p.APDomains, g.Tile(s.Pos, slabs))
	}

	rng := sim.NewRNG(seed)
	// One light schedule per intersection, shared by every vehicle.
	phases := make([]sim.Time, len(g.Nodes))
	for n := range g.Nodes {
		if g.Degree(n) >= 3 {
			st := rng.Stream(fmt.Sprintf("urban/light/%d", n))
			phases[n] = sim.Time(st.IntN(int(lightCycle/sim.Millisecond))) * sim.Millisecond
		} else {
			phases[n] = -1
		}
	}
	lightPhase := func(n int) sim.Time { return phases[n] }

	var latest sim.Time
	addVehicle := func(route []int, kind ClientKind, bus int, topMPH float64, depart sim.Time, jitter mobility.Point, lights bool) (*mobility.WaypointTrace, error) {
		rc := routeCfg{topMPH: topMPH, depart: depart, turns: kind != KindPedestrian}
		if lights {
			rc.lightPhase = lightPhase
		}
		tr, st, err := buildRoute(g, route, rc)
		if err != nil {
			return nil, err
		}
		p.Stats.Turns += st.Turns
		p.Stats.LightStops += st.LightStops
		p.Stats.DwellS += st.DwellS
		p.Stats.RouteCrossings += crossings(g, route, cfg.Domains)
		if st.EndAt > latest {
			latest = st.EndAt
		}
		p.Clients = append(p.Clients, ClientPlan{
			Kind: kind, Bus: bus, SpeedMPH: topMPH, Route: route,
			Trace: RiderTrace{Lead: tr, Offset: jitter},
		})
		return tr, nil
	}

	// Buses: each runs a deterministic weave line serving two neighboring
	// avenues — advance one block, cross over to the other avenue, advance,
	// cross back — then retrace the line to its origin. Every crossover is
	// a corner turn, which is the event this workload exists to produce:
	// the serving street (and with it the radio picture) changes at nearly
	// every intersection. The line spans the full grid width, so it crosses
	// every domain-slab boundary in both directions.
	for b := 0; b < cfg.Buses; b++ {
		st := rng.Stream(fmt.Sprintf("urban/bus/%d/route", b))
		row := st.IntN(cfg.Rows)
		row2 := row + 1
		if row2 >= cfg.Rows {
			row2 = row - 1
		}
		route := []int{g.NodeAt(row, 0)}
		cur := row
		for c := 1; c < cfg.Cols; c++ {
			route = append(route, g.NodeAt(cur, c))
			cur = row + row2 - cur
			route = append(route, g.NodeAt(cur, c))
		}
		for i := len(route) - 2; i >= 0; i-- {
			route = append(route, route[i])
		}
		jit := vehicleJitter(rng, fmt.Sprintf("urban/bus/%d/jitter", b))
		lead, err := addVehicle(route, KindBus, b, cfg.BusSpeedMPH, 0, jit, true)
		if err != nil {
			return nil, err
		}
		p.Stats.Buses++
		// Riders: fixed seats behind the same lead trace — correlated
		// group mobility, many clients per vehicle.
		seats := rng.Stream(fmt.Sprintf("urban/bus/%d/riders", b))
		for r := 0; r < cfg.RidersPerBus; r++ {
			off := mobility.Point{
				X: jit.X + (seats.Float64()*2-1)*3.0,
				Y: jit.Y + (seats.Float64()*2-1)*1.0,
			}
			p.Clients = append(p.Clients, ClientPlan{
				Kind: KindRider, Bus: b, SpeedMPH: cfg.BusSpeedMPH,
				Trace: RiderTrace{Lead: lead, Offset: off},
			})
			p.Stats.Riders++
		}
	}

	// Cars: shortest-path trips between distinct random intersections at a
	// mixed design speed, staggered departures.
	for i := 0; i < cfg.Cars; i++ {
		st := rng.Stream(fmt.Sprintf("urban/car/%d/route", i))
		from := st.IntN(len(g.Nodes))
		to := st.IntN(len(g.Nodes) - 1)
		if to >= from {
			to++
		}
		speed := carSpeedsMPH[st.IntN(len(carSpeedsMPH))]
		depart := sim.Time(st.IntN(4000)) * sim.Millisecond
		route := g.ShortestPath(from, to, speed)
		if route == nil {
			return nil, fmt.Errorf("urban: no route from %d to %d", from, to)
		}
		jit := vehicleJitter(rng, fmt.Sprintf("urban/car/%d/jitter", i))
		if _, err := addVehicle(route, KindCar, -1, speed, depart, jit, true); err != nil {
			return nil, err
		}
		p.Stats.Cars++
	}

	// Pedestrians: short random walks along sidewalks — no lights, no
	// turn slowdown, walking pace.
	for i := 0; i < cfg.Pedestrians; i++ {
		st := rng.Stream(fmt.Sprintf("urban/ped/%d", i))
		route := randomWalk(g, st.IntN(len(g.Nodes)), 2+st.IntN(2), st)
		depart := sim.Time(st.IntN(2000)) * sim.Millisecond
		jit := mobility.Point{X: (st.Float64()*2 - 1) * 1.5, Y: (st.Float64()*2 - 1) * 1.5}
		if _, err := addVehicle(route, KindPedestrian, -1, pedSpeedMPH, depart, jit, false); err != nil {
			return nil, err
		}
		p.Stats.Pedestrians++
	}

	p.Duration = latest + 2*sim.Second
	if maxDur := sim.FromSeconds(cfg.MaxDurationS); p.Duration > maxDur {
		p.Duration = maxDur
	}
	return p, nil
}

// carSpeedsMPH is the design-speed mix cars draw from.
var carSpeedsMPH = [...]float64{15, 25, 35}

// vehicleJitter draws a small fixed lane offset so no two vehicles ever sit
// at the exact same coordinate.
func vehicleJitter(rng *sim.RNG, stream string) mobility.Point {
	st := rng.Stream(stream)
	return mobility.Point{
		X: (st.Float64()*2 - 1) * 1.2,
		Y: (st.Float64()*2 - 1) * 0.5,
	}
}

// crossings counts how many times a node route changes federation domain.
func crossings(g *Graph, route []int, nDom int) uint64 {
	if nDom <= 1 {
		return 0
	}
	var n uint64
	slabs := Tiling{Rows: 1, Cols: nDom}
	prev := g.Tile(g.Nodes[route[0]].Pos, slabs)
	for _, v := range route[1:] {
		d := g.Tile(g.Nodes[v].Pos, slabs)
		if d != prev {
			n++
			prev = d
		}
	}
	return n
}

// randomWalk picks a hops-edge walk from start, avoiding an immediate
// U-turn when the intersection offers any other way out.
func randomWalk(g *Graph, start, hops int, st *rand.Rand) []int {
	route := []int{start}
	prev := -1
	for len(route) < hops+1 {
		cur := route[len(route)-1]
		var opts []int
		for _, ei := range g.adj[cur] {
			if v := g.Edges[ei].Other(cur); v != prev {
				opts = append(opts, v)
			}
		}
		if len(opts) == 0 {
			opts = []int{prev}
		}
		next := opts[st.IntN(len(opts))]
		prev = cur
		route = append(route, next)
	}
	return route
}
