package eval

import (
	"fmt"
	"time"

	"wgtt/internal/fleet"
	"wgtt/internal/metrics"
)

// RunOutput is one experiment's rendered artifact.
type RunOutput struct {
	ID    string
	Title string
	// Text is the rendered result (empty when Err is set).
	Text string
	Err  error
	// Elapsed is wall-clock cost; callers must keep it out of any output
	// that is compared across runs.
	Elapsed time.Duration
	// Metrics is the experiment's observability snapshot, present only when
	// RunAll was asked to collect metrics (opt.CollectMetrics).
	Metrics *metrics.Snapshot
}

// RunAll executes the experiment registry — or just the ids given — across
// a bounded worker pool and returns the outputs in registry order,
// regardless of worker count or completion order. Every experiment builds
// its own isolated simulation state, so concurrent execution cannot
// perturb results. Unknown ids are an error.
func RunAll(opt Options, workers int, ids []string) ([]RunOutput, error) {
	all := Experiments()
	selected := all
	if len(ids) > 0 {
		want := make(map[string]bool, len(ids))
		for _, id := range ids {
			want[id] = true
		}
		selected = selected[:0:0]
		for _, e := range all {
			if want[e.ID] {
				selected = append(selected, e)
				delete(want, e.ID)
			}
		}
		for _, id := range ids {
			if want[id] {
				return nil, fmt.Errorf("eval: unknown experiment %q", id)
			}
		}
	}
	outs := make([]RunOutput, len(selected))
	fleet.ForEach(len(selected), workers, func(i int) {
		e := selected[i]
		eopt := opt
		if eopt.CollectMetrics {
			// One registry per experiment: registries are single-goroutine,
			// so sharing one across the pool would race.
			eopt.registry = metrics.NewRegistry()
		}
		start := time.Now()
		res, err := e.Run(eopt)
		out := RunOutput{ID: e.ID, Title: e.Title, Err: err, Elapsed: time.Since(start)}
		if err == nil {
			out.Text = res.Render()
		}
		if eopt.CollectMetrics {
			snap := eopt.registry.Snapshot()
			out.Metrics = &snap
		}
		outs[i] = out
	})
	return outs, nil
}
