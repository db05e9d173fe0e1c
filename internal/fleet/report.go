package fleet

import (
	"fmt"
	"strings"

	"wgtt/internal/chaos"
	"wgtt/internal/controller"
	"wgtt/internal/federation"
	"wgtt/internal/metrics"
	"wgtt/internal/stats"
	"wgtt/internal/urban"
)

// Result is a completed fleet deployment.
type Result struct {
	Cfg   Config
	Cells []CellResult
}

// Run deploys cfg.Cells corridor cells across cfg.Workers workers and
// returns the merged result. Cell i's outcome depends only on (cfg, i), and
// cells are aggregated in index order, so the result — and its rendered
// report — is identical for every worker count.
func Run(cfg Config) (*Result, error) {
	if cfg.Metro != nil {
		return nil, fmt.Errorf("fleet: metro deployments run via RunMetro")
	}
	cells := make([]CellResult, cfg.Cells)
	errs := make([]error, cfg.Cells)
	progress := progressFunc(cfg, cfg.Cells)
	ForEach(cfg.Cells, cfg.Workers, func(i int) {
		cells[i], errs[i] = RunCell(cfg, i)
		progress()
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Result{Cfg: cfg, Cells: cells}, nil
}

// MergedMetrics combines the per-cell observability snapshots in cell index
// order (nil when cfg.Metrics was off). Cell order — not completion order —
// keeps the merged snapshot deterministic across worker counts.
func (r *Result) MergedMetrics() *metrics.Snapshot {
	var snaps []metrics.Snapshot
	for i := range r.Cells {
		if r.Cells[i].Metrics != nil {
			snaps = append(snaps, *r.Cells[i].Metrics)
		}
	}
	if len(snaps) == 0 {
		return nil
	}
	merged := metrics.Merge(snaps...)
	return &merged
}

// quantileHeader and quantileRow make the distribution table both
// deployment reports print: one row of sample count and quantiles per metric.
var quantileHeader = []string{"metric", "n", "p5", "p25", "p50", "p75", "p95", "max"}

func quantileRow(t *stats.Table, name string, c *stats.CDF) {
	cells := []string{name, fmt.Sprintf("%d", c.N())}
	for _, q := range stats.Quantiles(c, 0.05, 0.25, 0.50, 0.75, 0.95, 1) {
		cells = append(cells, stats.F(q))
	}
	t.AddRow(cells...)
}

// Render produces the deployment report. It must stay a pure function of
// the cell results (no wall-clock, no worker count) to preserve the
// byte-identical-report determinism contract.
func (r *Result) Render() string {
	var b strings.Builder

	// Fleet-wide distributions, filled in cell order.
	vehicleMbps := &stats.CDF{}
	cellMbps := &stats.CDF{}
	accuracy := &stats.CDF{}
	udpLoss := &stats.CDF{}
	var vehicles, tcp, udp int
	var capacity float64
	var ctl controller.Stats
	var fed federation.Stats
	var cha chaos.Stats
	var urb urban.Stats
	var cross uint64
	for i := range r.Cells {
		c := &r.Cells[i]
		for _, f := range c.Flows {
			vehicleMbps.Add(f.Mbps)
			if f.TCP {
				tcp++
			} else {
				udp++
				udpLoss.Add(f.Loss)
			}
		}
		cellMbps.Add(c.AggMbps)
		accuracy.Add(c.AccuracyPct)
		vehicles += c.Vehicles
		capacity += c.AggMbps
		metrics.Sum(&ctl, c.Ctl)
		metrics.Sum(&fed, c.Fed)
		metrics.Sum(&cha, c.Chaos)
		metrics.Sum(&urb, c.Urban)
		cross += c.CrossSwitches
	}

	fmt.Fprintf(&b, "WGTT fleet deployment report\n")
	if u := r.Cfg.Urban; u != nil {
		fmt.Fprintf(&b, "cells %d  city %dx%d blocks (%.0f m)  fleet seed %d\n",
			len(r.Cells), u.Rows, u.Cols, u.BlockM, r.Cfg.Seed)
		fmt.Fprintf(&b, "clients %d  offered udp %.2f Mb/s each\n",
			vehicles, r.Cfg.UDPRateMbps)
	} else {
		fmt.Fprintf(&b, "cells %d  aps/cell %d  spacing %.1f m  fleet seed %d\n",
			len(r.Cells), r.Cfg.APsPerCell, r.Cfg.SpacingM, r.Cfg.Seed)
		fmt.Fprintf(&b, "vehicles %d (tcp %d / udp %d)  offered udp %.0f Mb/s\n",
			vehicles, tcp, udp, r.Cfg.UDPRateMbps)
	}
	fmt.Fprintf(&b, "fleet capacity %.2f Mb/s delivered (mean %.2f Mb/s per cell)\n",
		capacity, capacity/float64(len(r.Cells)))
	fmt.Fprintf(&b, "switching %d completed (%d stop retransmissions), accuracy mean %.1f%%\n",
		ctl.SwitchesDone, ctl.StopRetransmits, accuracy.Mean())
	fmt.Fprintf(&b, "uplink %d unique / %d duplicate packets\n\n", ctl.UplinkUnique, ctl.UplinkDuplicate)

	b.WriteString("Per-cell capacity\n")
	t := &stats.Table{Header: []string{
		"cell", "seed", "veh", "Mb/s", "acc%", "switches", "stop-rtx", "airtime%"}}
	for i := range r.Cells {
		c := &r.Cells[i]
		t.AddRow(fmt.Sprintf("%d", c.Cell), fmt.Sprintf("%016x", c.Seed),
			fmt.Sprintf("%d", c.Vehicles), stats.F(c.AggMbps), stats.F(c.AccuracyPct),
			fmt.Sprintf("%d", c.Ctl.SwitchesDone), fmt.Sprintf("%d", c.Ctl.StopRetransmits),
			stats.F(c.AirtimePct))
	}
	b.WriteString(t.String())
	b.WriteString("\n")

	b.WriteString("Merged distributions\n")
	d := &stats.Table{Header: quantileHeader}
	quantileRow(d, "vehicle goodput (Mb/s)", vehicleMbps)
	quantileRow(d, "cell capacity (Mb/s)", cellMbps)
	quantileRow(d, "switch accuracy (%)", accuracy)
	quantileRow(d, "udp loss fraction", udpLoss)
	b.WriteString(d.String())

	// Federation section, present only for sharded controller tiers so
	// single-controller reports stay byte-identical to their pre-federation
	// form.
	if nDom := r.Cfg.federatedDomains(); nDom > 1 {
		fmt.Fprintf(&b, "\nFederation (%d domains per cell, DESIGN.md §13)\n", nDom)
		fmt.Fprintf(&b, "handoff offers %d  adoptions %d  aborts %d  cross-domain switches %d\n",
			fed.OffersSent, fed.Adoptions, fed.Aborts, cross)
		ft := &stats.Table{Header: []string{
			"cell", "offers", "adoptions", "aborts", "cross-switch"}}
		for i := range r.Cells {
			c := &r.Cells[i]
			ft.AddRow(fmt.Sprintf("%d", c.Cell), fmt.Sprintf("%d", c.Fed.OffersSent),
				fmt.Sprintf("%d", c.Fed.Adoptions), fmt.Sprintf("%d", c.Fed.Aborts),
				fmt.Sprintf("%d", c.CrossSwitches))
		}
		b.WriteString(ft.String())
	}

	// Resilience section, present only under fault injection so chaos-free
	// reports stay byte-identical to their pre-chaos form.
	if r.Cfg.Chaos != nil {
		b.WriteString("\nResilience (fault injection, DESIGN.md §11)\n")
		fmt.Fprintf(&b, "ap crashes %d  marked dead %d  readmitted %d  forced switches %d\n",
			cha.APCrashes, ctl.APsMarkedDead, ctl.APsReadmitted, ctl.ForcedSwitches)
		if r.Cfg.federatedDomains() > 1 {
			// A one-domain plan draws no controller crash (chaos.BuildPlan).
			fmt.Fprintf(&b, "controller crashes %d  restarts %d  skipped %d\n", cha.CtlCrashes, cha.CtlRestarts, cha.CtlSkipped)
		}
		fmt.Fprintf(&b, "backhaul burst drops %d  csi blackout drops %d\n", cha.BurstDrops, cha.BlackoutDrops)
		rt := &stats.Table{Header: []string{
			"cell", "crashes", "dead", "readmit", "forced", "burst-drop", "csi-drop"}}
		for i := range r.Cells {
			c := &r.Cells[i]
			rt.AddRow(fmt.Sprintf("%d", c.Cell), fmt.Sprintf("%d", c.Chaos.APCrashes),
				fmt.Sprintf("%d", c.Ctl.APsMarkedDead), fmt.Sprintf("%d", c.Ctl.APsReadmitted),
				fmt.Sprintf("%d", c.Ctl.ForcedSwitches), fmt.Sprintf("%d", c.Chaos.BurstDrops),
				fmt.Sprintf("%d", c.Chaos.BlackoutDrops))
		}
		b.WriteString(rt.String())
	}

	// Urban section, present only for street-grid city cells so corridor
	// reports stay byte-identical to their pre-urban form.
	if r.Cfg.Urban != nil {
		fmt.Fprintf(&b, "\nUrban workload (%dx%d grid per cell, DESIGN.md §16)\n",
			r.Cfg.Urban.Rows, r.Cfg.Urban.Cols)
		fmt.Fprintf(&b, "buses %d (riders %d)  cars %d  pedestrians %d\n",
			urb.Buses, urb.Riders, urb.Cars, urb.Pedestrians)
		fmt.Fprintf(&b, "turns %d  light stops %d  inter-cell route crossings %d\n",
			urb.Turns, urb.LightStops, urb.RouteCrossings)
		ut := &stats.Table{Header: []string{
			"cell", "buses", "riders", "cars", "peds", "turns", "lights", "crossings"}}
		for i := range r.Cells {
			c := &r.Cells[i]
			ut.AddRow(fmt.Sprintf("%d", c.Cell), fmt.Sprintf("%d", c.Urban.Buses),
				fmt.Sprintf("%d", c.Urban.Riders), fmt.Sprintf("%d", c.Urban.Cars),
				fmt.Sprintf("%d", c.Urban.Pedestrians), fmt.Sprintf("%d", c.Urban.Turns),
				fmt.Sprintf("%d", c.Urban.LightStops), fmt.Sprintf("%d", c.Urban.RouteCrossings))
		}
		b.WriteString(ut.String())
	}
	return b.String()
}
