package urban

import (
	"math"
	"testing"

	"wgtt/internal/mobility"
	"wgtt/internal/sim"
)

func TestGridShape(t *testing.T) {
	g, err := NewGrid(3, 4, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 12 {
		t.Fatalf("nodes = %d, want 12", len(g.Nodes))
	}
	// 3 rows × 3 avenue edges + 4 cols × 2 street edges.
	if len(g.Edges) != 9+8 {
		t.Fatalf("edges = %d, want 17", len(g.Edges))
	}
	// Avenues come first, streets after.
	for i, e := range g.Edges {
		if (i < 9) != e.Avenue {
			t.Fatalf("edge %d avenue=%v, want avenues in the first 9 slots", i, e.Avenue)
		}
		if e.Length != 50 {
			t.Fatalf("edge %d length = %g, want 50", i, e.Length)
		}
		if e.Avenue && e.SpeedMPH != 25 && e.SpeedMPH != 35 {
			t.Fatalf("avenue %d limit = %g, want 25 or 35", i, e.SpeedMPH)
		}
		if !e.Avenue && e.SpeedMPH != 15 && e.SpeedMPH != 25 {
			t.Fatalf("street %d limit = %g, want 15 or 25", i, e.SpeedMPH)
		}
	}
	n := g.NodeAt(2, 3)
	if got := g.Nodes[n].Pos; got != (mobility.Point{X: 150, Y: 100}) {
		t.Fatalf("node (2,3) at %v, want (150,100)", got)
	}
	if g.EdgeBetween(0, 1) < 0 || g.EdgeBetween(1, 0) < 0 {
		t.Fatal("edge 0-1 not found")
	}
	if g.EdgeBetween(0, 5) >= 0 {
		t.Fatal("diagonal 0-5 should not be a street")
	}
	// Corner degree 2, edge-of-grid 3, interior 4.
	if d := g.Degree(g.NodeAt(0, 0)); d != 2 {
		t.Fatalf("corner degree = %d, want 2", d)
	}
	if d := g.Degree(g.NodeAt(0, 1)); d != 3 {
		t.Fatalf("edge-node degree = %d, want 3", d)
	}
	if d := g.Degree(g.NodeAt(1, 1)); d != 4 {
		t.Fatalf("interior degree = %d, want 4", d)
	}
}

func TestGridRejectsDegenerate(t *testing.T) {
	if _, err := NewGrid(1, 4, 50, 1); err == nil {
		t.Fatal("1-row grid accepted")
	}
	if _, err := NewGrid(2, 2, 0, 1); err == nil {
		t.Fatal("zero block accepted")
	}
}

func TestPlaceAPs(t *testing.T) {
	g, err := NewGrid(2, 2, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	sites := g.PlaceAPs(25, 6)
	// 4 edges × 2 APs each (60/25 → 2 per edge).
	if len(sites) != 8 {
		t.Fatalf("sites = %d, want 8", len(sites))
	}
	for _, s := range sites {
		e := g.Edges[s.Edge]
		a, b := g.Nodes[e.A].Pos, g.Nodes[e.B].Pos
		// Perpendicular distance from the street centerline is the setback.
		d := pointSegDist(s.Pos, a, b)
		if math.Abs(d-6) > 1e-9 {
			t.Fatalf("AP %v is %g m off edge %d, want 6", s.Pos, d, s.Edge)
		}
	}
}

func pointSegDist(p, a, b mobility.Point) float64 {
	ab := b.Sub(a)
	t := (p.Sub(a).X*ab.X + p.Sub(a).Y*ab.Y) / (ab.X*ab.X + ab.Y*ab.Y)
	proj := a.Add(ab.Scale(t))
	return p.Distance(proj)
}

func TestShortestPathPrefersFastStreets(t *testing.T) {
	g, err := NewGrid(2, 3, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Corner to corner: path must exist, start and end right, and be
	// connected by real street segments.
	path := g.ShortestPath(g.NodeAt(0, 0), g.NodeAt(1, 2), 35)
	if path == nil {
		t.Fatal("no path across a connected grid")
	}
	if path[0] != 0 || path[len(path)-1] != g.NodeAt(1, 2) {
		t.Fatalf("path %v does not join the endpoints", path)
	}
	for i := 0; i+1 < len(path); i++ {
		if g.EdgeBetween(path[i], path[i+1]) < 0 {
			t.Fatalf("path hop %d->%d is not a street", path[i], path[i+1])
		}
	}
	// Same query twice: identical (tie-breaking is deterministic).
	again := g.ShortestPath(g.NodeAt(0, 0), g.NodeAt(1, 2), 35)
	for i := range path {
		if path[i] != again[i] {
			t.Fatalf("path changed between runs: %v vs %v", path, again)
		}
	}
}

// A 1×n tiling is the federation slab split: vertical slabs of equal width
// across the city's 120 m X extent, an interior boundary belonging to the
// higher slab, positions beyond the border clamped, the same answer on
// every call.
func TestPartitionSlabs(t *testing.T) {
	g, err := NewGrid(2, 3, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		x       float64
		n, want int
	}{
		{0, 2, 0}, {59, 2, 0}, {60, 2, 1}, {61, 2, 1}, {120, 2, 1}, {-5, 2, 0}, {500, 2, 1},
		{90, 1, 0}, {39, 3, 0}, {41, 3, 1}, {119, 3, 2}, {60, 5, 2}, {500, 5, 4},
	}
	for _, c := range cases {
		pos, slabs := mobility.Point{X: c.x, Y: 30}, Tiling{Rows: 1, Cols: c.n}
		if got := g.Tile(pos, slabs); got != c.want {
			t.Fatalf("1x%d Tile(x=%g) = %d, want %d", c.n, c.x, got, c.want)
		}
		if again := g.Tile(pos, slabs); again != c.want {
			t.Fatalf("1x%d Tile(x=%g) changed between calls: %d", c.n, c.x, again)
		}
	}
}

func TestBuildPlanDefault(t *testing.T) {
	cfg := DefaultConfig()
	p, err := BuildPlan(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	wantClients := cfg.Buses*(1+cfg.RidersPerBus) + cfg.Cars + cfg.Pedestrians
	if len(p.Clients) != wantClients {
		t.Fatalf("clients = %d, want %d", len(p.Clients), wantClients)
	}
	if p.Stats.Buses != 1 || p.Stats.Riders != 10 || p.Stats.Cars != 1 || p.Stats.Pedestrians != 2 {
		t.Fatalf("stats mix = %+v", p.Stats)
	}
	if p.Stats.RouteCrossings < 1 {
		t.Fatalf("route crossings = %d, want ≥ 1 with 2 domains", p.Stats.RouteCrossings)
	}
	if p.Stats.Turns < 2 {
		t.Fatalf("turns = %d, want ≥ 2 (the bus U-line alone turns twice)", p.Stats.Turns)
	}
	if p.Duration <= 0 || p.Duration > sim.FromSeconds(cfg.MaxDurationS) {
		t.Fatalf("duration = %v outside (0, %gs]", p.Duration, cfg.MaxDurationS)
	}
	if len(p.APs) == 0 || len(p.APDomains) != len(p.APs) {
		t.Fatalf("APs = %d, domains = %d", len(p.APs), len(p.APDomains))
	}
	seen := map[int]bool{}
	for _, d := range p.APDomains {
		if d < 0 || d >= cfg.Domains {
			t.Fatalf("AP domain %d out of range", d)
		}
		seen[d] = true
	}
	if len(seen) != cfg.Domains {
		t.Fatalf("only %d of %d domains own APs", len(seen), cfg.Domains)
	}
	// Every trace must be finite everywhere we might sample it.
	for i, c := range p.Clients {
		for _, tt := range []sim.Time{0, p.Duration / 3, p.Duration / 2, p.Duration} {
			pos := c.Trace.Position(tt)
			for _, v := range []float64{pos.X, pos.Y} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("client %d (%v) non-finite at t=%v: pos=%v", i, c.Kind, tt, pos)
				}
			}
		}
	}
	// Riders stay glued to their bus.
	var bus ClientPlan
	for _, c := range p.Clients {
		if c.Kind == KindBus {
			bus = c
		}
	}
	mid := p.Duration / 2
	for _, c := range p.Clients {
		if c.Kind != KindRider {
			continue
		}
		if d := c.Trace.Position(mid).Distance(bus.Trace.Position(mid)); d > 10 {
			t.Fatalf("rider drifted %g m from its bus", d)
		}
		if got, want := speed(c.Trace, mid), speed(bus.Trace, mid); math.Abs(got-want) > 1e-6 {
			t.Fatalf("rider moves at %g m/s, its bus at %g", got, want)
		}
	}
}

// speed is the trace's scalar speed (m/s) over the millisecond after t.
func speed(tr mobility.Trace, t sim.Time) float64 {
	return tr.Position(t+sim.Millisecond).Distance(tr.Position(t)) / sim.Millisecond.Seconds()
}

func TestBuildPlanValidates(t *testing.T) {
	bad := []Config{
		{},
		func() Config { c := DefaultConfig(); c.Rows = 1; return c }(),
		func() Config { c := DefaultConfig(); c.Domains = 0; return c }(),
		func() Config { c := DefaultConfig(); c.Cars, c.Buses, c.Pedestrians = 0, 0, 0; return c }(),
		func() Config { c := DefaultConfig(); c.MaxDurationS = 0; return c }(),
	}
	for i, c := range bad {
		if _, err := BuildPlan(c, 1); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestRouteTurnSlowdown(t *testing.T) {
	g, err := NewGrid(2, 2, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Right-angle route: east along the avenue, then north up the street.
	route := []int{g.NodeAt(0, 0), g.NodeAt(0, 1), g.NodeAt(1, 1)}
	tr, st, err := buildRoute(g, route, routeCfg{topMPH: 25, turns: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Turns != 1 {
		t.Fatalf("turns = %d, want 1", st.Turns)
	}
	// Find the moment the vehicle is just past the corner (inside the entry
	// turn zone of leg 2) and check it crawls at turn speed.
	corner := g.Nodes[g.NodeAt(0, 1)].Pos
	var inZone bool
	for ms := sim.Time(0); ms < st.EndAt; ms += 50 * sim.Millisecond {
		pos := tr.Position(ms)
		if pos.X == corner.X && pos.Y > corner.Y && pos.Y < corner.Y+turnZoneM {
			inZone = true
			if sp := speed(tr, ms) / mobility.MetersPerSecondPerMPH; math.Abs(sp-turnSpeedMPH) > 0.5 {
				t.Fatalf("speed in turn zone = %.1f mph, want ~%g", sp, turnSpeedMPH)
			}
		}
	}
	if !inZone {
		t.Fatal("sampling never caught the vehicle inside the turn zone")
	}
}

func TestRouteLightDwell(t *testing.T) {
	g, err := NewGrid(2, 2, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	route := []int{g.NodeAt(0, 0), g.NodeAt(0, 1), g.NodeAt(1, 1)}
	// Force a red light at the middle node: phase chosen so arrival lands
	// inside the red window.
	tr, st, err := buildRoute(g, route, routeCfg{
		topMPH: 25, turns: false,
		lightPhase: func(n int) sim.Time {
			if n == g.NodeAt(0, 1) {
				return 0 // arrival time mod 8 s decides; retry below if green
			}
			return -1
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.LightStops == 0 {
		// Arrival happened to land in green; shift the phase to make it red.
		arrive := sim.FromSeconds(60 / mobility.MPH(25))
		phase := lightCycle - arrive%lightCycle + 500*sim.Millisecond
		tr, st, err = buildRoute(g, route, routeCfg{
			topMPH: 25, turns: false,
			lightPhase: func(n int) sim.Time {
				if n == g.NodeAt(0, 1) {
					return phase
				}
				return -1
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if st.LightStops != 1 {
		t.Fatalf("light stops = %d, want 1", st.LightStops)
	}
	if st.DwellS <= 0 || st.DwellS > lightRed.Seconds() {
		t.Fatalf("dwell = %g s, want in (0, %g]", st.DwellS, lightRed.Seconds())
	}
	// During the dwell the vehicle must sit still at the corner.
	corner := g.Nodes[g.NodeAt(0, 1)].Pos
	var still bool
	for ms := sim.Time(0); ms < st.EndAt; ms += 10 * sim.Millisecond {
		if tr.Position(ms) == corner && speed(tr, ms) == 0 {
			still = true
			break
		}
	}
	if !still {
		t.Fatal("vehicle never dwelled at the red light")
	}
}

func TestRiderTraceOffsets(t *testing.T) {
	lead := mobility.DriveBy(0, 0, 25)
	r := RiderTrace{Lead: lead, Offset: mobility.Point{X: 2, Y: -1}}
	at := sim.FromSeconds(3)
	want := lead.Position(at).Add(mobility.Point{X: 2, Y: -1})
	if got := r.Position(at); got != want {
		t.Fatalf("rider at %v, want %v", got, want)
	}
}

// TestBlockageGeometry pins the street-canyon model: same street is LOS,
// crossing streets cost one corner, parallel streets two.
func TestBlockageGeometry(t *testing.T) {
	g, err := NewGrid(3, 3, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := func(x, y float64) mobility.Point { return mobility.Point{X: x, Y: y} }
	cases := []struct {
		name string
		a, b mobility.Point
		want float64
	}{
		{"same avenue", p(10, 0), p(100, 3), 0},
		{"same street", p(60, 10), p(57, 110), 0},
		{"one corner", p(30, 2), p(58, 40), cornerLossDB},
		{"two corners", p(30, 2), p(30, 62), 2 * cornerLossDB},
		{"intersection sees both", p(0, 0), p(30, 2), 0},
		{"intersection around corner", p(0, 0), p(60, 30), cornerLossDB},
	}
	for _, c := range cases {
		if got := g.BlockageDB(c.a, c.b); got != c.want {
			t.Errorf("%s: BlockageDB(%v,%v) = %v, want %v", c.name, c.a, c.b, got, c.want)
		}
		if rev := g.BlockageDB(c.b, c.a); rev != g.BlockageDB(c.a, c.b) {
			t.Errorf("%s: blockage not symmetric", c.name)
		}
	}
}
