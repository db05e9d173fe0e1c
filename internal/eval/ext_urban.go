package eval

import (
	"fmt"
	"strings"

	"wgtt/internal/core"
	"wgtt/internal/sim"
	"wgtt/internal/stats"
	"wgtt/internal/transport"
	"wgtt/internal/urban"
)

// urbanOutageBin is the delivery-gap granularity: a client with no
// delivered downlink packet for a whole bin is in outage for that bin.
const urbanOutageBin = 250 * sim.Millisecond

// ExtUrbanResult compares rapid picocell switching against Enhanced
// 802.11r on a street-grid city (DESIGN.md §16): a bus of riders, a car,
// and pedestrians routed through intersections, lights, and controller
// domains, instead of the paper's straight corridor.
type ExtUrbanResult struct {
	// City shape.
	Rows, Cols int
	APCount    int
	Clients    int
	Stats      urban.Stats
	Domains    int
	DurationS  float64

	// Per-system outcomes, row-aligned with Modes.
	Modes      []string
	AggMbps    []float64
	ClientMbps []float64 // mean per-client goodput
	LossPct    []float64
	OutagePct  []float64 // mean % of 250 ms bins with zero deliveries
	Switches   []uint64  // WGTT switches / baseline roams
	Handoffs   []uint64  // inter-controller adoptions (WGTT only)
}

// extUrbanCity is the evaluation city: the default two-avenue grid, one
// bus line of ten riders, mixed car/pedestrian traffic, two federation
// domains. Quick mode shrinks the map and horizon but keeps the bus full —
// the correlated rider group is the point of the workload.
func extUrbanCity(quick bool) urban.Config {
	cfg := urban.DefaultConfig()
	// Tighter blocks and a brisker bus raise the turn density — the city
	// event rate — over the default map; quick mode then just shortens the
	// horizon and thins the sidewalks.
	cfg.BlockM = 40
	cfg.BusSpeedMPH = 20
	if quick {
		cfg.Pedestrians = 1
		cfg.MaxDurationS = 20
	} else {
		cfg.MaxDurationS = 40
	}
	return cfg
}

// ExtUrban runs the city under both systems — identical graph, AP sites,
// and traces — and reports goodput, loss, outage, and switching activity.
// The urban workload is where the baseline's scan-and-reassociate roams hurt most:
// every turn and light changes the best AP faster than a scan converges.
func ExtUrban(opt Options) (*ExtUrbanResult, error) {
	city := extUrbanCity(opt.Quick)
	// Offered load per client: tuned per city so the aggregate sits just
	// under the shared single-channel medium's budget — the comparison then
	// measures switching/roaming gaps, not raw congestion collapse. The
	// quick city is smaller (fewer contending stations over a shorter
	// horizon), so each client can offer a little more.
	rate := 0.4 // Mb/s per client
	if opt.Quick {
		rate = 0.5
	}

	res := &ExtUrbanResult{Rows: city.Rows, Cols: city.Cols, Domains: city.Domains}
	for _, mode := range []core.Mode{core.ModeWGTT, core.ModeBaseline} {
		s, err := core.UrbanScenario(mode, city, opt.Seed)
		if err != nil {
			return nil, err
		}
		d, err := opt.drive(s, core.Loads(len(s.Clients), core.Load{RateMbps: rate, Record: true})...)
		if err != nil {
			return nil, err
		}
		n, dur := d.Net, s.Duration
		if mode == core.ModeWGTT {
			res.APCount = len(n.APPosition)
			res.Clients = len(s.Clients)
			res.Stats = s.City.Stats
			res.DurationS = dur.Seconds()
		}

		var bytes uint64
		var loss, outage float64
		outs := d.Outcomes()
		for _, o := range outs {
			bytes += o.Bytes
			loss += o.Loss
			outage += outagePct(o.Arrivals, dur, urbanOutageBin)
		}
		nc := float64(len(outs))
		agg := core.Mbps(bytes, dur)
		res.Modes = append(res.Modes, fmtMode(mode))
		res.AggMbps = append(res.AggMbps, agg)
		res.ClientMbps = append(res.ClientMbps, agg/nc)
		res.LossPct = append(res.LossPct, 100*loss/nc)
		res.OutagePct = append(res.OutagePct, outage/nc)
		if mode == core.ModeWGTT {
			res.Switches = append(res.Switches, n.CtlStats().SwitchesDone)
			res.Handoffs = append(res.Handoffs, n.FedStats().Adoptions)
		} else {
			res.Switches = append(res.Switches, uint64(len(n.Base.Handovers)))
			res.Handoffs = append(res.Handoffs, 0)
		}
	}
	return res, nil
}

// outagePct returns the percentage of whole bins in [0, dur) during which
// no packet was delivered.
func outagePct(deliveries []transport.Arrival, dur, bin sim.Time) float64 {
	bins := int(dur / bin)
	if bins == 0 {
		return 0
	}
	seen := make([]bool, bins)
	for _, a := range deliveries {
		if i := int(a.At / bin); i >= 0 && i < bins {
			seen[i] = true
		}
	}
	empty := 0
	for _, s := range seen {
		if !s {
			empty++
		}
	}
	return 100 * float64(empty) / float64(bins)
}

// Render implements Result.
func (r *ExtUrbanResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension (§16): urban street-grid city, %dx%d blocks, %d street APs, %d domains\n",
		r.Rows, r.Cols, r.APCount, r.Domains)
	fmt.Fprintf(&b, "traffic: %d bus(es) carrying %d riders, %d car(s), %d pedestrian(s)  (%d clients, %.1f s)\n",
		r.Stats.Buses, r.Stats.Riders, r.Stats.Cars, r.Stats.Pedestrians, r.Clients, r.DurationS)
	fmt.Fprintf(&b, "routes: %d turns, %d light stops (%.1f s dwell), %d inter-cell route crossings\n",
		r.Stats.Turns, r.Stats.LightStops, r.Stats.DwellS, r.Stats.RouteCrossings)
	t := &stats.Table{Header: []string{
		"system", "agg Mb/s", "per-client", "loss%", "outage%", "switches", "handoffs"}}
	for i := range r.Modes {
		t.AddRow(r.Modes[i], stats.F(r.AggMbps[i]), stats.F(r.ClientMbps[i]),
			stats.F(r.LossPct[i]), stats.F(r.OutagePct[i]),
			fmt.Sprintf("%d", r.Switches[i]), fmt.Sprintf("%d", r.Handoffs[i]))
	}
	b.WriteString(t.String())
	return b.String()
}
