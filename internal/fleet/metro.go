package fleet

import (
	"fmt"
	"sort"
	"strings"

	"wgtt/internal/core"
	"wgtt/internal/metrics"
	"wgtt/internal/mobility"
	"wgtt/internal/packet"
	"wgtt/internal/sim"
	"wgtt/internal/stats"
	"wgtt/internal/urban"
)

// This file is the metro engine (DESIGN.md §17): one connected city cut
// into an R×C grid of metro cells, each tile a complete single-domain WGTT
// simulation, advancing in lockstep time epochs on the fleet worker pool.
// Clients whose routes cross a tile seam migrate between tile simulations
// at epoch barriers: the source cell exports the client's volatile
// controller state as a §13 DomainHandoffCommit, the commit round-trips
// through the federation wire codec, and the destination cell admits the
// client at the AP nearest its crossing point, resuming its downlink flow
// at the exact sequence cursor the source stopped at.
//
// Determinism contract: the migration schedule is precomputed from the
// (config, seed)-pure metro plan; migrations are grouped by epoch, sorted
// by (crossing time, metro client ID), and applied on the scheduler
// goroutine while every tile's clock sits at the same barrier instant.
// Tiles share no mutable state between barriers, so the report is
// byte-identical for any worker count.

// metroEpoch is how long every tile advances between boundary-exchange
// barriers. Admission is quantized to epoch edges, so the length shapes the
// results, but never the determinism: reports are byte-identical for any
// worker count.
const metroEpoch = 500 * sim.Millisecond

// migration is one planned seam crossing: client leaves tile From for tile
// To at time At. Applied at the first epoch barrier at or after At.
type migration struct {
	At       sim.Time
	ClientID int // metro client index — the sort tie-breaker
	From, To int
}

// metroTile is one running metro cell: a cell under the fleet harness plus
// the mapping between the tile's local client indices and metro client IDs.
type metroTile struct {
	*cell
	metroIDs []int       // local client index → metro client ID
	local    map[int]int // metro client ID → local client index
	// names maps the tile's metrics components, named by local index, to
	// the node's city-wide name: AP site, metro client.
	names map[string]string
	// MigrationsIn/Out count the seam crossings this tile admitted/exported.
	MigrationsIn, MigrationsOut uint64
}

// metroRun is a metro deployment in flight: built tiles, the epoch
// schedule, and the migration queue.
type metroRun struct {
	Cfg  Config
	Plan *urban.MetroPlan

	Tiles []*metroTile // index = tile id; nil for tiles no route visits
	built []*metroTile // the non-nil tiles, in tile order

	// byEpoch[k] holds the migrations applied at barrier (k+1)·metroEpoch,
	// sorted by (time, client id).
	byEpoch map[int][]migration
	epochs  int

	nextHandoffID uint32
	stats         MetroStats
	reg           *metrics.Registry
}

// MetroStats aggregates the metro-wide outcomes of a run. The tagged fields
// are the metro component's -metrics counters; the rest are totalled over
// the tiles after the run.
type MetroStats struct {
	// Migrations is the number of cross-cell client migrations performed.
	Migrations uint64 `metric:"migrations"`
	// SeamOutage is the total client-time lost to barrier quantization:
	// the sum over migrations of (admission barrier − crossing time).
	// SeamOutageMS is its counter, each migration's wait truncated to
	// whole milliseconds before summing.
	SeamOutage   sim.Time
	SeamOutageMS uint64 `metric:"seam_outage_ms"`
	// HandoffWireBytes is the encoded size of every §13 commit carried
	// across a seam — the metro's inter-cell control-plane volume.
	HandoffWireBytes uint64 `metric:"handoff_wire_bytes"`
	// Sent and Received are the metro-wide downlink datagram totals; loss
	// is their gap (sequence cursors continue across migrations, so the
	// totals span cells).
	Sent, Received uint64
	Bytes          uint64
	Switches       uint64
	CSIReports     uint64
}

// MetroResult is a completed metro deployment.
type MetroResult struct {
	Cfg       Config
	Tiling    urban.Tiling
	Seed      uint64
	DurationS float64
	EpochMS   float64
	Epochs    int

	Clients    int
	BuiltTiles int
	// Crossings is the planned seam-crossing count (every crossing migrates
	// unless MetroIsolated cut the seams).
	Crossings int

	Stats MetroStats

	// Per-client metro-wide outcomes, indexed by metro client ID.
	PerClientMbps []float64
	PerClientLoss []float64
	AggMbps       float64

	Tiles []MetroTileResult

	// Metrics is the metro's observability snapshot (migration counters
	// plus every tile's registry merged in tile order), set when
	// cfg.Metrics is enabled. Kept out of Render so the byte-identical
	// determinism contract is unaffected.
	Metrics *metrics.Snapshot
}

// MetroTileResult is one tile's slice of the metro outcome: the tile's cell
// result (Cell is the tile index, Vehicles the clients whose routes ever
// visit the tile) plus its place in the metro.
type MetroTileResult struct {
	CellResult
	APs                         int
	Resident                    int // clients whose routes start in the tile
	MigrationsIn, MigrationsOut uint64
}

// RunMetro builds and runs a connected metro to completion.
func RunMetro(cfg Config) (*MetroResult, error) {
	m, err := newMetroRun(cfg)
	if err != nil {
		return nil, err
	}
	progress := progressFunc(m.Cfg, m.epochs)
	for k := 0; k < m.epochs; k++ {
		m.runEpoch(k)
		progress()
	}
	return m.finish()
}

// newMetroRun plans the city, builds every visited tile's network, and
// precomputes the migration schedule.
func newMetroRun(cfg Config) (*metroRun, error) {
	if cfg.Metro == nil {
		return nil, fmt.Errorf("fleet: metro run without Config.Metro")
	}
	if cfg.Urban != nil || cfg.Chaos != nil || cfg.Domains > 1 {
		return nil, fmt.Errorf("fleet: metro is mutually exclusive with Urban, Chaos, and Domains")
	}
	seed := sim.NewRNG(cfg.Seed).Stream("fleet/metro/seed").Uint64()
	plan, err := urban.BuildMetroPlan(*cfg.Metro, seed)
	if err != nil {
		return nil, fmt.Errorf("fleet: metro plan: %w", err)
	}
	m := &metroRun{
		Cfg:     cfg,
		Plan:    plan,
		Tiles:   make([]*metroTile, cfg.Metro.Tiles.N()),
		byEpoch: make(map[int][]migration),
		epochs:  int((plan.Duration() + metroEpoch - 1) / metroEpoch),
	}
	if cfg.Metrics {
		m.reg = metrics.NewRegistry()
		m.reg.Counters("metro", &m.stats)
	}

	// Bind each client to the tiles its route visits. Isolated mode pins
	// every client to its first tile for the whole horizon — the same city,
	// seams cut.
	visitors := make([][]presence, len(m.Tiles))
	for ci, mc := range plan.Clients {
		if cfg.MetroIsolated {
			t := mc.Visits[0].Tile
			visitors[t] = append(visitors[t], presence{metroID: ci, from: 0, to: plan.Duration()})
			continue
		}
		first := make(map[int]sim.Time)
		last := make(map[int]sim.Time)
		for _, v := range mc.Visits {
			if _, ok := first[v.Tile]; !ok {
				first[v.Tile] = v.Enter
			}
			last[v.Tile] = v.Exit
		}
		for t, from := range first {
			visitors[t] = append(visitors[t], presence{
				metroID: ci, from: from, to: last[t],
			})
		}
		for k := 1; k < len(mc.Visits); k++ {
			mig := migration{
				At:       mc.Visits[k].Enter,
				ClientID: ci,
				From:     mc.Visits[k-1].Tile,
				To:       mc.Visits[k].Tile,
			}
			e := int(mig.At / metroEpoch)
			m.byEpoch[e] = append(m.byEpoch[e], mig)
		}
	}
	for _, migs := range m.byEpoch {
		sort.Slice(migs, func(i, j int) bool {
			if migs[i].At != migs[j].At {
				return migs[i].At < migs[j].At
			}
			return migs[i].ClientID < migs[j].ClientID
		})
	}

	// Build the visited tiles. Tile build order is index order and every
	// quantity derives from (plan, tile), so the build is deterministic;
	// tiles no route ever enters stay nil (core.Build needs ≥ 1 client, and
	// an empty simulation would change nothing).
	frng := sim.NewRNG(cfg.Seed)
	for t := range m.Tiles {
		if len(visitors[t]) == 0 {
			continue
		}
		sort.Slice(visitors[t], func(i, j int) bool {
			return visitors[t][i].metroID < visitors[t][j].metroID
		})
		tile, err := m.buildTile(t, visitors[t], frng)
		if err != nil {
			for _, b := range m.built {
				b.drive.Close()
			}
			return nil, err
		}
		m.Tiles[t] = tile
		m.built = append(m.built, tile)
	}
	return m, nil
}

// presence is one client's residence window in one tile: from first entry
// to last exit. A window that does not open at time zero builds the client
// deferred.
type presence struct {
	metroID  int
	from, to sim.Time
}

// buildTile assembles one metro cell: the tile's AP sites as a city cell,
// every visiting client clipped to its presence window, and — through the
// cell harness — one downlink UDP flow per client. Clients whose first visit
// starts mid-run are built deferred: AdmitCellHandoff completes their
// bootstrap, and migrate starts their flow, when they migrate in. Tiles do
// not sample the oracle: no metro report reads it.
func (m *metroRun) buildTile(t int, visitors []presence, frng *sim.RNG) (*metroTile, error) {
	plan := m.Plan
	tile := &metroTile{local: make(map[int]int), names: make(map[string]string)}
	var aps []mobility.Point
	for local, site := range plan.TileAPs[t] {
		aps = append(aps, plan.City.APs[site].Pos)
		tile.names[packet.APName(local)] = packet.APName(site)
	}
	var clients []core.ClientSpec
	for local, v := range visitors {
		cp := plan.Clients[v.metroID].Plan
		var tr mobility.Trace = cp.Trace
		if !m.Cfg.MetroIsolated {
			// Clip to the presence window: outside it the client sits
			// parked at its seam-crossing point instead of extrapolating
			// into another tile's geography. Isolated mode keeps the full
			// city trace — the client drives out of its birth tile's
			// coverage, which is exactly the behavior being ablated.
			tr = mobility.Clip{Inner: cp.Trace, From: v.from, To: v.to}
		}
		clients = append(clients, core.ClientSpec{
			Trace:    tr,
			SpeedMPH: cp.SpeedMPH,
			Deferred: v.from > 0,
		})
		tile.metroIDs = append(tile.metroIDs, v.metroID)
		tile.local[v.metroID] = local
		tile.names[packet.ClientName(local+1)] = packet.ClientName(v.metroID + 1)
	}
	s := core.CityCellScenario(core.ModeWGTT, plan.City.Graph,
		frng.Stream(fmt.Sprintf("fleet/metro/tile/%d/seed", t)).Uint64(),
		plan.Duration(), aps, clients)
	n, err := core.Build(s)
	if err != nil {
		return nil, fmt.Errorf("fleet: metro tile %d: %w", t, err)
	}
	loads := core.Loads(len(visitors), core.Load{RateMbps: m.Cfg.UDPRateMbps})
	if tile.cell, err = attachCell(m.Cfg, t, n, loads); err != nil {
		return nil, err
	}
	if m.Cfg.MetroIsolated {
		return tile, nil
	}
	// Exits are in-simulation events: the flow and the keepalive stream
	// stop at the instant the route leaves the tile, not at the next
	// barrier, so a departed client stops consuming the tile's airtime
	// immediately. (The controller keeps its state until the barrier's
	// export — harmless, it just serves a silent client.)
	for local, id := range tile.metroIDs {
		cl := n.Clients[local]
		sender := tile.drive.UDP[local].Sender
		for _, vis := range plan.Clients[id].Visits {
			if vis.Tile != t || vis.Exit >= plan.Duration() {
				continue
			}
			n.Eng.At(vis.Exit, func() {
				sender.Stop()
				cl.StopKeepalive()
			})
		}
	}
	return tile, nil
}

// runEpoch advances every tile through epoch k and applies the migrations of
// the barrier that ends it. Tiles run concurrently on the worker pool;
// migrations apply on the calling goroutine in (time, client) order while
// every clock sits at the barrier.
func (m *metroRun) runEpoch(k int) {
	end := min(sim.Time(k+1)*metroEpoch, m.Plan.Duration())
	ForEach(len(m.built), m.Cfg.Workers, func(i int) {
		m.built[i].drive.Net.RunUntil(end)
	})
	for _, mig := range m.byEpoch[k] {
		m.migrate(mig, end)
	}
}

// migrate moves one client between tile simulations at a barrier. The §13
// commit is encoded and decoded through the real federation wire format, so
// exactly what the protocol can carry crosses the seam — identity is the
// one translation the metro layer adds, since each cell names its clients
// in its own local MAC/IP namespace.
func (m *metroRun) migrate(mig migration, barrier sim.Time) {
	src, dst := m.Tiles[mig.From], m.Tiles[mig.To]
	from, to := src.local[mig.ClientID], dst.local[mig.ClientID]
	fromFlow := src.drive.UDP[from].Sender

	m.nextHandoffID++
	commit, err := src.drive.Net.ExportCellHandoff(from, m.nextHandoffID)
	if err != nil {
		// An unadmitted source (e.g. a boundary-flicker double-cross inside
		// one epoch resolved the client elsewhere) cannot export; the
		// client keeps its current cell until its next crossing.
		return
	}
	seq, ipid := fromFlow.Cursor()
	fromFlow.Stop()

	entryAP := dst.drive.Net.NearestAPTo(m.Plan.Clients[mig.ClientID].Plan.Trace.Position(mig.At))

	// Wire round-trip (cell-to-cell evidence transfer over the §13 format).
	wire := packet.Encode(commit)
	decoded, err := packet.Decode(wire)
	if err != nil {
		panic(fmt.Sprintf("fleet: metro handoff commit does not round-trip: %v", err))
	}
	commit = decoded.(*packet.DomainHandoffCommit)

	if err := dst.drive.Net.AdmitCellHandoff(to, entryAP, commit); err != nil {
		panic(fmt.Sprintf("fleet: metro admission: %v", err))
	}
	dst.drive.Resume(to, seq, ipid)

	src.MigrationsOut++
	dst.MigrationsIn++
	m.stats.Migrations++
	m.stats.SeamOutage += barrier - mig.At
	m.stats.HandoffWireBytes += uint64(len(wire))
	m.stats.SeamOutageMS += uint64((barrier - mig.At) / sim.Millisecond)
}

// finish harvests every tile and sums the tiles' cell results into the
// per-tile, per-client and metro-wide outcomes. Every tile's horizon is
// plan.Duration(), the last epoch's end, so harvest's Run only ends the run
// and checks it.
func (m *metroRun) finish() (*MetroResult, error) {
	plan := m.Plan
	dur := plan.Duration()
	res := &MetroResult{
		Cfg:        m.Cfg,
		Tiling:     m.Cfg.Metro.Tiles,
		Seed:       m.Cfg.Seed,
		DurationS:  dur.Seconds(),
		EpochMS:    float64(metroEpoch) / float64(sim.Millisecond),
		Epochs:     m.epochs,
		Clients:    len(plan.Clients),
		BuiltTiles: len(m.built),
		Crossings:  plan.Crossings,
		Stats:      m.stats,
	}

	// perClient sums each client's flow over the tiles that carried it.
	perClient := make([]core.Outcome, len(plan.Clients))
	var snaps []metrics.Snapshot
	if m.reg != nil {
		snaps = append(snaps, m.reg.Snapshot())
	}
	for i, tile := range m.built {
		cr, err := tile.harvest()
		if err != nil {
			for _, rest := range m.built[i+1:] {
				rest.drive.Close()
			}
			return nil, err
		}
		for local, id := range tile.metroIDs {
			perClient[id].Sent += cr.Flows[local].Sent
			perClient[id].Received += cr.Flows[local].Received
			perClient[id].Bytes += cr.Flows[local].Bytes
		}
		res.Stats.Switches += cr.Ctl.SwitchesDone
		res.Stats.CSIReports += cr.Ctl.CSIReports
		if cr.Metrics != nil {
			// One row set per node: tiles' local names would sum different
			// APs and clients into one row.
			cr.Metrics.Rename(tile.names)
			snaps = append(snaps, *cr.Metrics)
		}
		res.Tiles = append(res.Tiles, MetroTileResult{
			CellResult:    cr,
			APs:           len(plan.TileAPs[cr.Cell]),
			Resident:      residentCount(plan, cr.Cell),
			MigrationsIn:  tile.MigrationsIn,
			MigrationsOut: tile.MigrationsOut,
		})
	}
	for _, c := range perClient {
		res.PerClientMbps = append(res.PerClientMbps, core.Mbps(c.Bytes, dur))
		loss := 0.0
		if c.Sent > 0 && c.Received < c.Sent {
			loss = float64(c.Sent-c.Received) / float64(c.Sent)
		}
		res.PerClientLoss = append(res.PerClientLoss, loss)
		res.Stats.Sent += c.Sent
		res.Stats.Received += c.Received
		res.Stats.Bytes += c.Bytes
	}
	res.AggMbps = core.Mbps(res.Stats.Bytes, dur)
	if len(snaps) > 0 {
		merged := metrics.Merge(snaps...)
		res.Metrics = &merged
	}
	return res, nil
}

// residentCount counts clients whose routes start in tile t.
func residentCount(plan *urban.MetroPlan, t int) int {
	n := 0
	for _, c := range plan.Clients {
		if c.Visits[0].Tile == t {
			n++
		}
	}
	return n
}

// Render produces the metro deployment report — a pure function of the
// result, worker-count-independent by construction.
func (r *MetroResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "WGTT metro deployment report\n")
	city := r.Cfg.Metro.City
	fmt.Fprintf(&b, "tiles %s (%d built of %d)  city %dx%d blocks (%.0f m)  fleet seed %d\n",
		r.Tiling, r.BuiltTiles, r.Tiling.N(), city.Rows, city.Cols, city.BlockM, r.Seed)
	mode := "connected"
	if r.Cfg.MetroIsolated {
		mode = "isolated (seams cut)"
	}
	fmt.Fprintf(&b, "mode %s  epoch %.0f ms (%d epochs over %.1f s)\n",
		mode, r.EpochMS, r.Epochs, r.DurationS)
	fmt.Fprintf(&b, "clients %d  planned seam crossings %d  offered udp %.2f Mb/s each\n",
		r.Clients, r.Crossings, r.Cfg.UDPRateMbps)

	loss := 0.0
	if r.Stats.Sent > 0 {
		loss = float64(r.Stats.Sent-r.Stats.Received) / float64(r.Stats.Sent)
	}
	fmt.Fprintf(&b, "metro capacity %.2f Mb/s delivered  datagrams %d/%d (loss %.4f)\n",
		r.AggMbps, r.Stats.Received, r.Stats.Sent, loss)
	fmt.Fprintf(&b, "migrations %d  seam outage %.0f ms total  handoff wire %d B  switches %d\n\n",
		r.Stats.Migrations, float64(r.Stats.SeamOutage)/float64(sim.Millisecond),
		r.Stats.HandoffWireBytes, r.Stats.Switches)

	b.WriteString("Per-client goodput and loss\n")
	g := &stats.CDF{}
	g.AddAll(r.PerClientMbps)
	l := &stats.CDF{}
	l.AddAll(r.PerClientLoss)
	d := &stats.Table{Header: quantileHeader}
	quantileRow(d, "client goodput (Mb/s)", g)
	quantileRow(d, "client loss fraction", l)
	b.WriteString(d.String())

	// The per-tile table is the debugging view; at metro scale (1,000+
	// tiles) it would dwarf the report, so it caps at 64 built tiles —
	// a threshold on the result, not on anything runtime-dependent.
	if r.BuiltTiles <= 64 {
		b.WriteString("\nPer-tile activity\n")
		t := &stats.Table{Header: []string{
			"tile", "aps", "clients", "resident", "MB", "switches", "mig-in", "mig-out", "airtime%"}}
		for i := range r.Tiles {
			c := &r.Tiles[i]
			t.AddRow(fmt.Sprintf("%d", c.Cell), fmt.Sprintf("%d", c.APs),
				fmt.Sprintf("%d", c.Vehicles), fmt.Sprintf("%d", c.Resident),
				stats.F(float64(c.Bytes)/1e6), fmt.Sprintf("%d", c.Ctl.SwitchesDone),
				fmt.Sprintf("%d", c.MigrationsIn), fmt.Sprintf("%d", c.MigrationsOut),
				stats.F(c.AirtimePct))
		}
		b.WriteString(t.String())
	} else {
		var in uint64
		for i := range r.Tiles {
			in += r.Tiles[i].MigrationsIn
		}
		fmt.Fprintf(&b, "\n(%d built tiles; per-tile table suppressed, %d migrations admitted)\n",
			r.BuiltTiles, in)
	}
	return b.String()
}
