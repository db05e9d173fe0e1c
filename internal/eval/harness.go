// Package eval regenerates every table and figure of the paper's
// evaluation (§2, §5): each experiment builds the scenario it needs, runs
// it on the simulated substrate, and returns the rows or series the paper
// reports, plus a rendered text form. See DESIGN.md's experiment index for
// the mapping.
package eval

import (
	"fmt"

	"wgtt/internal/core"
	"wgtt/internal/metrics"
	"wgtt/internal/selector"
)

// Options tunes experiment cost.
type Options struct {
	// Seed is the base scenario seed; related runs derive from it.
	Seed uint64
	// Quick trims sweeps (fewer points, shorter runs) for benchmarks and
	// smoke tests; the full settings reproduce the paper's axes.
	Quick bool
	// CollectMetrics makes RunAll attach a fresh registry to each
	// experiment (registries are not safe to share across workers) and
	// return the per-experiment snapshots on RunOutput.Metrics.
	CollectMetrics bool
	// Policy, when set, is the AP-selection policy (DESIGN.md §15) of every
	// scenario an experiment builds that does not name its own. "" keeps
	// the §3.1.1 windowed-median default, preserving the byte-identical
	// reference output.
	Policy selector.Policy

	// registry, set by RunAll under CollectMetrics, receives every built
	// network's instrument recordings (DESIGN.md §10). Experiments run
	// single-goroutine, so one registry per experiment; an experiment that
	// builds several networks accumulates them all into the same registry.
	registry *metrics.Registry
}

// Result is implemented by every experiment's output.
type Result interface {
	// Render returns the human-readable table/series.
	Render() string
}

// build constructs the scenario's network, wiring it into the experiment's
// registry when metrics collection is enabled.
func (opt Options) build(s core.Scenario) (*core.Network, error) {
	if s.Policy == "" {
		s.Policy = opt.Policy
	}
	n, err := core.Build(s)
	if err != nil {
		return nil, err
	}
	if opt.registry != nil {
		n.EnableMetricsInto(opt.registry)
	}
	return n, nil
}

// drive is the paper's measurement in one call: build the scenario, put
// loads[i] on client i (core.Drive), run to the horizon. Experiments that
// hook the network between build and run call build and Attach themselves.
func (opt Options) drive(s core.Scenario, loads ...core.Load) (*core.Drive, error) {
	n, err := opt.build(s)
	if err != nil {
		return nil, err
	}
	d := n.Attach(loads)
	n.Run()
	return d, nil
}

// meanMbps is the drive's mean per-client goodput.
func meanMbps(d *core.Drive) float64 {
	outs := d.Outcomes()
	var total float64
	for _, o := range outs {
		total += o.Mbps
	}
	return total / float64(len(outs))
}

// fmtMode renders a mode for table headers.
func fmtMode(m core.Mode) string {
	if m == core.ModeWGTT {
		return "WGTT"
	}
	return "Enh-802.11r"
}

// seriesString renders a float series compactly.
func seriesString(name string, xs []float64, prec int) string {
	out := name + ":"
	for _, v := range xs {
		out += fmt.Sprintf(" %.*f", prec, v)
	}
	return out + "\n"
}
