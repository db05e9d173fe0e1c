package urban

import (
	"fmt"
	"math"

	"wgtt/internal/mobility"
	"wgtt/internal/sim"
)

// This file plans the metro (DESIGN.md §17): one connected city cut into a
// tile grid of metro cells, with a per-client visit schedule — which tile
// each client occupies over which time span — derived from the routed
// traces. The schedule is what the fleet's epoch scheduler migrates clients
// by, so like everything else in this package it is a pure function of
// (config, seed).

// visitStep is the trace sampling period of the visit schedule. Crossing
// times are quantized to it; it is well under the fleet's epoch length, so
// the quantization never moves a crossing across an epoch barrier's worth
// of time.
const visitStep = 25 * sim.Millisecond

// MetroConfig describes a connected metro: a city and the tile grid that
// cuts it into metro cells.
type MetroConfig struct {
	// Tiles is the metro cell grid laid over the city span.
	Tiles Tiling
	// City is the full-city workload. The metro ignores its Domains field:
	// the tiles are the sharding story, each running its own controller,
	// and clients cross tile seams via cell-to-cell handoff instead of the
	// in-cell federation slabs.
	City Config
}

// DefaultMetroConfig is a small demonstrative metro: a 2×2 tile grid over a
// 4×4-block city, one bus line of riders plus cars and pedestrians routed
// across the seams.
func DefaultMetroConfig() MetroConfig {
	city := DefaultConfig()
	city.Rows, city.Cols = 5, 5
	city.BlockM = 60
	city.APSpacingM = 30
	city.RidersPerBus = 6
	city.Cars = 2
	city.Pedestrians = 2
	city.MaxDurationS = 40
	return MetroConfig{Tiles: Tiling{Rows: 2, Cols: 2}, City: city}
}

// Validate rejects metros the planner cannot schedule.
func (c MetroConfig) Validate() error {
	if !c.Tiles.Valid() {
		return fmt.Errorf("urban: metro tiling needs at least 1x1 tiles, got %s", c.Tiles)
	}
	return c.City.Validate()
}

// Visit is one contiguous stay of a client inside one tile: the client
// enters at Enter and leaves at Exit (both quantized to visitStep; the
// final visit's Exit is the plan horizon).
type Visit struct {
	Tile  int
	Enter sim.Time
	Exit  sim.Time
}

// MetroClient is one city client with its tile visit schedule. Visits
// partition [0, Duration]: consecutive visits share a boundary instant,
// which is exactly when the client migrates between cell simulations.
type MetroClient struct {
	Plan   ClientPlan
	Visits []Visit
}

// Crossings returns how many tile seams the client's route crosses (one
// fewer than its visit count).
func (m *MetroClient) Crossings() int { return len(m.Visits) - 1 }

// MetroPlan is a fully expanded metro: the city plan, the AP→tile binding,
// and every client's visit schedule. Pure function of (MetroConfig, seed).
type MetroPlan struct {
	Cfg  MetroConfig
	City *Plan
	// APTile binds each city AP site to its tile; TileAPs inverts it
	// (ascending site indices per tile).
	APTile  []int
	TileAPs [][]int
	Clients []MetroClient
	// Crossings is the total seam-crossing count across all clients — the
	// metro's migration workload.
	Crossings int
}

// Duration is the shared horizon every tile simulation runs to.
func (p *MetroPlan) Duration() sim.Time { return p.City.Duration }

// BuildMetroPlan expands a metro config: it builds the full-city plan under
// seed, bins the AP sites into tiles, and samples every client trace at
// visitStep to derive the tile visit schedule. Every tile must own at least
// one AP site (a seam cell with no radio cannot admit the clients that
// drive through it); the default block-scale AP spacing guarantees that.
// A tiling with more tiles than AP sites fails that check before anything
// is sized by the tile count.
func BuildMetroPlan(cfg MetroConfig, seed uint64) (*MetroPlan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cp, err := BuildPlan(cfg.City, seed)
	if err != nil {
		return nil, err
	}
	if cfg.Tiles.N() > len(cp.APs) {
		return nil, fmt.Errorf("urban: metro tiling %s has more tiles than the city's %d AP sites; use a denser AP spacing or a coarser tiling", cfg.Tiles, len(cp.APs))
	}
	p := &MetroPlan{Cfg: cfg, City: cp, TileAPs: make([][]int, cfg.Tiles.N())}
	for i, s := range cp.APs {
		t := cp.Graph.Tile(s.Pos, cfg.Tiles)
		p.APTile = append(p.APTile, t)
		p.TileAPs[t] = append(p.TileAPs[t], i)
	}
	for t, aps := range p.TileAPs {
		if len(aps) == 0 {
			return nil, fmt.Errorf("urban: metro tile %d owns no AP sites; use a denser AP spacing or a coarser tiling", t)
		}
	}
	cov := &coverage{tile: p.APTile}
	for _, s := range cp.APs {
		cov.pos = append(cov.pos, s.Pos)
	}
	for _, c := range cp.Clients {
		p.Clients = append(p.Clients, MetroClient{
			Plan:   c,
			Visits: visitSchedule(cov, c.Trace, cp.Duration),
		})
		p.Crossings += p.Clients[len(p.Clients)-1].Crossings()
	}
	return p, nil
}

// coverage maps a position to the tile that covers it by radio: the tile
// owning the nearest AP site. Visits follow coverage rather than raw tile
// geometry because the two disagree exactly where it matters — on seam
// streets. Street APs sit on one side of their street, so a street running
// along a tile boundary is lined entirely with one tile's APs while the
// lane itself can fall in the other tile; pure geometry would hand a client
// driving that street to the far cell, whose nearest APs are a block away
// behind full corner blockage. Nearest-AP ownership keeps every client in
// the cell that can actually serve it, and ties break to the lowest AP site
// index, keeping the schedule deterministic.
type coverage struct {
	pos  []mobility.Point
	tile []int
}

// tileAt returns the covering tile for p.
func (c *coverage) tileAt(p mobility.Point) int {
	best, bi := math.Inf(1), 0
	for i, ap := range c.pos {
		dx, dy := ap.X-p.X, ap.Y-p.Y
		if d := dx*dx + dy*dy; d < best {
			best, bi = d, i
		}
	}
	return c.tile[bi]
}

// visitSchedule samples a trace at visitStep over [0, dur] and folds the
// covering-tile sequence into contiguous visits. Consecutive samples in the
// same tile extend the current visit; a sample in a new tile closes the old
// one at that instant — boundary flicker (a vehicle hugging a coverage seam)
// simply produces short visits, which the metro handles like any other
// crossing.
func visitSchedule(cov *coverage, tr mobility.Trace, dur sim.Time) []Visit {
	visits := []Visit{{Tile: cov.tileAt(tr.Position(0))}}
	for at := visitStep; at < dur; at += visitStep {
		tile := cov.tileAt(tr.Position(at))
		if tile != visits[len(visits)-1].Tile {
			visits[len(visits)-1].Exit = at
			visits = append(visits, Visit{Tile: tile, Enter: at})
		}
	}
	visits[len(visits)-1].Exit = dur
	return visits
}
