package fleet

import (
	"fmt"
	"strings"

	"wgtt/internal/selector"
	"wgtt/internal/stats"
)

// PolicyOutcome is one selection policy's aggregate outcome over the same
// fleet map: the goodput / accuracy / flip-rate axis DESIGN.md §15's
// ablation reads off one policy at a time, here side by side.
type PolicyOutcome struct {
	Policy selector.Policy
	// FleetMbps is the delivered fleet capacity under this policy.
	FleetMbps float64
	// VehicleP50Mbps is the median per-vehicle goodput.
	VehicleP50Mbps float64
	// AccuracyPct is the mean oracle-match accuracy across cells.
	AccuracyPct float64
	// Switches is the total completed switches; FlipsPerMin is the same as
	// a rate over the summed cell horizons (the "flip rate" — how twitchy
	// the policy is for the same mobility).
	Switches    uint64
	FlipsPerMin float64
}

// PolicyComparison is a per-policy comparison over one fleet config: the
// same cells, seeds, maps, and traffic under each selection policy, so any
// difference in the columns is the policy alone.
type PolicyComparison struct {
	Cfg      Config
	Outcomes []PolicyOutcome
}

// ComparePolicies runs the fleet once per selector.Policies() entry —
// identical (seed, cell) derivations each time — and collects the
// comparison axis. Policies run sequentially in that order (each run
// parallelizes internally across cfg.Workers), so the comparison inherits
// the byte-identical determinism contract.
func ComparePolicies(cfg Config) (*PolicyComparison, error) {
	pc := &PolicyComparison{Cfg: cfg}
	for _, pol := range selector.Policies() {
		run := cfg
		run.Policy = pol
		res, err := Run(run)
		if err != nil {
			return nil, fmt.Errorf("fleet: policy %s: %w", pol, err)
		}
		pc.Outcomes = append(pc.Outcomes, summarizePolicy(pol, res))
	}
	return pc, nil
}

// summarizePolicy reduces one fleet result to its comparison-axis row.
func summarizePolicy(pol selector.Policy, res *Result) PolicyOutcome {
	out := PolicyOutcome{Policy: pol}
	perVehicle := &stats.CDF{}
	acc := &stats.CDF{}
	var horizonS float64
	for i := range res.Cells {
		c := &res.Cells[i]
		out.FleetMbps += c.AggMbps
		out.Switches += c.Ctl.SwitchesDone
		horizonS += c.DurationS
		acc.Add(c.AccuracyPct)
		for _, f := range c.Flows {
			perVehicle.Add(f.Mbps)
		}
	}
	out.AccuracyPct = acc.Mean()
	if perVehicle.N() > 0 {
		out.VehicleP50Mbps = stats.Quantiles(perVehicle, 0.5)[0]
	}
	if horizonS > 0 {
		out.FlipsPerMin = float64(out.Switches) / horizonS * 60
	}
	return out
}

// Render produces the side-by-side policy table. Pure function of the
// outcomes: byte-identical for any worker count, like Result.Render.
func (pc *PolicyComparison) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Selector policy comparison (%d cells, fleet seed %d, DESIGN.md §15)\n",
		pc.Cfg.Cells, pc.Cfg.Seed)
	t := &stats.Table{Header: []string{
		"policy", "fleet Mb/s", "veh p50 Mb/s", "acc%", "switches", "flips/min"}}
	for _, o := range pc.Outcomes {
		t.AddRow(string(o.Policy), stats.F(o.FleetMbps), stats.F(o.VehicleP50Mbps),
			stats.F(o.AccuracyPct), fmt.Sprintf("%d", o.Switches), stats.F(o.FlipsPerMin))
	}
	b.WriteString(t.String())
	return b.String()
}
