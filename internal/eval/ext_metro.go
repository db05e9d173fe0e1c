package eval

import (
	"fmt"
	"sort"
	"strings"

	"wgtt/internal/fleet"
	"wgtt/internal/sim"
	"wgtt/internal/stats"
	"wgtt/internal/urban"
)

// ExtMetroResult compares a connected metro — one city tiled into metro
// cells with cross-cell client migration (DESIGN.md §17) — against the same
// city with the seams cut: every client pinned to its birth tile's
// simulation, receding from its APs as it drives away. The ablation isolates
// exactly what the metro refactor adds, because both runs share the city
// graph, AP sites, routes, and radio draws.
type ExtMetroResult struct {
	Tiling     urban.Tiling
	Rows, Cols int
	APCount    int
	Clients    int
	Crossings  int
	DurationS  float64
	EpochMS    float64

	// Per-mode outcomes, row-aligned with Modes ("connected", "isolated").
	Modes        []string
	AggMbps      []float64
	ClientMbps   []float64 // mean per-client goodput
	LossPct      []float64 // mean per-client loss
	TailLossPct  []float64 // worst-quartile mean — where stranded clients live
	Migrations   []uint64
	SeamOutageMS []float64
	Switches     []uint64
}

// extMetroConfig is the evaluation metro: the default 2x2-tile city, with a
// smaller map and horizon in quick mode. The full map keeps routes long
// enough that isolated clients end up several blocks — and several street
// corners of blockage — away from their birth tile's APs.
func extMetroConfig(opt Options, quick bool) fleet.Config {
	metro := urban.DefaultMetroConfig()
	if quick {
		metro.City.Rows, metro.City.Cols = 4, 4
		metro.City.RidersPerBus = 3
		metro.City.Cars = 1
		metro.City.Pedestrians = 1
		metro.City.MaxDurationS = 25
	}
	return fleet.Config{
		Seed:        opt.Seed,
		Workers:     4,
		UDPRateMbps: 1,
		Metro:       &metro,
		Policy:      opt.Policy,
	}
}

// ExtMetro runs the city twice — seams connected, seams cut — and reports
// goodput, loss (mean and worst-quartile tail), migration activity, and the
// seam-outage cost of epoch-barrier admission.
func ExtMetro(opt Options) (*ExtMetroResult, error) {
	cfg := extMetroConfig(opt, opt.Quick)
	res := &ExtMetroResult{
		Tiling: cfg.Metro.Tiles,
		Rows:   cfg.Metro.City.Rows,
		Cols:   cfg.Metro.City.Cols,
	}
	for _, isolated := range []bool{false, true} {
		c := cfg
		c.MetroIsolated = isolated
		r, err := fleet.RunMetro(c)
		if err != nil {
			return nil, err
		}
		if !isolated {
			res.Clients = r.Clients
			res.Crossings = r.Crossings
			res.DurationS = r.DurationS
			res.EpochMS = r.EpochMS
			for _, tr := range r.Tiles {
				res.APCount += tr.APs
			}
		}
		mode := "connected"
		if isolated {
			mode = "isolated"
		}
		var mbps, loss float64
		for i := range r.PerClientMbps {
			mbps += r.PerClientMbps[i]
			loss += r.PerClientLoss[i]
		}
		nc := float64(r.Clients)
		res.Modes = append(res.Modes, mode)
		res.AggMbps = append(res.AggMbps, r.AggMbps)
		res.ClientMbps = append(res.ClientMbps, mbps/nc)
		res.LossPct = append(res.LossPct, 100*loss/nc)
		res.TailLossPct = append(res.TailLossPct, 100*worstQuartileMean(r.PerClientLoss))
		res.Migrations = append(res.Migrations, r.Stats.Migrations)
		res.SeamOutageMS = append(res.SeamOutageMS,
			float64(r.Stats.SeamOutage)/float64(sim.Millisecond))
		res.Switches = append(res.Switches, r.Stats.Switches)
	}
	return res, nil
}

// worstQuartileMean averages the highest quarter of xs — the clients the
// seam cut strands. The mean over all clients dilutes them with clients
// whose routes never leave their birth tile.
func worstQuartileMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := (len(s) + 3) / 4
	worst := s[len(s)-k:]
	sum := 0.0
	for _, x := range worst {
		sum += x
	}
	return sum / float64(len(worst))
}

// Render implements Result.
func (r *ExtMetroResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension (§17): metro fleet, one %dx%d-block city tiled %s (%d street APs)\n",
		r.Rows, r.Cols, r.Tiling, r.APCount)
	fmt.Fprintf(&b, "clients %d  planned seam crossings %d  epoch %.0f ms  horizon %.1f s\n",
		r.Clients, r.Crossings, r.EpochMS, r.DurationS)
	t := &stats.Table{Header: []string{
		"mode", "agg Mb/s", "per-client", "loss%", "tail loss%", "migrations", "seam ms", "switches"}}
	for i := range r.Modes {
		t.AddRow(r.Modes[i], stats.F(r.AggMbps[i]), stats.F(r.ClientMbps[i]),
			stats.F(r.LossPct[i]), stats.F(r.TailLossPct[i]),
			fmt.Sprintf("%d", r.Migrations[i]), stats.F(r.SeamOutageMS[i]),
			fmt.Sprintf("%d", r.Switches[i]))
	}
	b.WriteString(t.String())
	return b.String()
}
