package eval

import (
	"fmt"

	"wgtt/internal/core"
	"wgtt/internal/mobility"
	"wgtt/internal/sim"
	"wgtt/internal/stats"
)

// ExtFederationResult characterizes the sharded controller tier of
// DESIGN.md §13: what a drive across domain boundaries costs relative to
// the single-controller deployment of the same corridor.
type ExtFederationResult struct {
	Domains        []int
	Handoffs       []uint64  // completed inter-controller adoptions
	Offers         []uint64  // handoff offers sent
	Aborts         []uint64  // offers abandoned (timeout / peer down)
	OfferCommitMS  []float64 // median offer → commit transfer time
	CrossSwitchMS  []float64 // median stop → ack on the adopting domain
	WorstHandoffMS []float64 // longest delivery gap straddling any handoff
	UDPMbps        []float64
	UDPLossPct     []float64
}

// ExtFederation sweeps the domain count over a 16-AP omni small-cell
// corridor at 15 mph and reports the cost of crossing controller
// boundaries: how often the tier hands the client off, how long the
// offer → commit state transfer and the cross-domain stop → start → ack
// take, and the worst client-visible delivery gap charged to a handoff.
// The Domains=1 row is the single-controller control; federation must not
// tax a drive that never leaves its domain.
func ExtFederation(opt Options) (*ExtFederationResult, error) {
	domains := []int{1, 2, 4}
	if opt.Quick {
		domains = []int{1, 2}
	}
	res := &ExtFederationResult{}
	pos := mobility.DenseArray(16, 5, 7.5)
	for _, nDom := range domains {
		s := core.Scenario{
			Mode:        core.ModeWGTT,
			Seed:        opt.Seed,
			APPositions: pos,
			OmniAPs:     true,
			Domains:     nDom,
			Clients: []core.ClientSpec{{
				Trace:    mobility.TransitDrive(pos, 15, 10),
				SpeedMPH: 15,
			}},
			Duration: mobility.TransitDuration(pos, 15, 10) + 2*sim.Second,
		}
		n, err := opt.build(s)
		if err != nil {
			return nil, err
		}
		d := n.Attach([]core.Load{{RateMbps: 20, Record: true}})
		n.Run()

		// Each domain's Adopted ledger holds the cross-domain switches it
		// completed; the worst gap is a max, so the domains' order is moot.
		var transfer, sw []float64
		var handoffAts []sim.Time
		for _, d := range n.Fed.Domains {
			for _, rec := range d.Offered {
				transfer = append(transfer, float64(rec.OfferToCommit)/float64(sim.Millisecond))
			}
			for _, rec := range d.Adopted {
				sw = append(sw, float64(rec.SwitchDuration)/float64(sim.Millisecond))
				handoffAts = append(handoffAts, rec.At)
			}
		}

		out := d.Outcome(0)
		res.Domains = append(res.Domains, nDom)
		res.UDPMbps = append(res.UDPMbps, out.Mbps)
		res.UDPLossPct = append(res.UDPLossPct, 100*out.Loss)
		res.WorstHandoffMS = append(res.WorstHandoffMS,
			float64(worstCrashOutage(out.Arrivals, handoffAts))/float64(sim.Millisecond))

		fs := n.FedStats()
		res.Handoffs = append(res.Handoffs, fs.Adoptions)
		res.Offers = append(res.Offers, fs.OffersSent)
		res.Aborts = append(res.Aborts, fs.Aborts)

		res.OfferCommitMS = append(res.OfferCommitMS, median(transfer))
		res.CrossSwitchMS = append(res.CrossSwitchMS, median(sw))
	}
	return res, nil
}

// Render implements Result.
func (r *ExtFederationResult) Render() string {
	t := &stats.Table{Header: []string{
		"domains", "handoffs", "offers", "aborts", "xfer(ms)", "x-switch(ms)",
		"worst-gap(ms)", "UDP Mb/s", "loss%"}}
	for i := range r.Domains {
		t.AddRow(fmt.Sprintf("%d", r.Domains[i]), fmt.Sprintf("%d", r.Handoffs[i]),
			fmt.Sprintf("%d", r.Offers[i]), fmt.Sprintf("%d", r.Aborts[i]),
			stats.F(r.OfferCommitMS[i]), stats.F(r.CrossSwitchMS[i]),
			stats.F(r.WorstHandoffMS[i]), stats.F(r.UDPMbps[i]), stats.F(r.UDPLossPct[i]))
	}
	return "Extension (§13): controller federation, 16-AP omni corridor, 15 mph UDP\n" + t.String()
}
