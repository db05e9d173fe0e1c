// Command wgtt-experiments regenerates every table and figure from the
// paper's evaluation on the simulated substrate (see DESIGN.md for the
// experiment index and EXPERIMENTS.md for recorded paper-vs-measured
// comparisons). Experiments run concurrently across a worker pool; output
// is always printed in registry order, so -workers never changes what you
// see, only how long you wait.
//
// Usage:
//
//	wgtt-experiments                # run everything (takes minutes)
//	wgtt-experiments -quick         # trimmed sweeps
//	wgtt-experiments -workers 8     # parallel regeneration
//	wgtt-experiments fig13 table2   # run selected artifacts
//	wgtt-experiments ext-resilience # just the fault-injection experiment
//	wgtt-experiments -list
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"wgtt/cmd/internal/cliflags"
	"wgtt/internal/eval"
	"wgtt/internal/metrics"
)

func main() {
	var (
		quick        = flag.Bool("quick", false, "trimmed sweeps")
		list         = flag.Bool("list", false, "list experiment IDs")
		seed         = flag.Uint64("seed", 2017, "base seed")
		workers      = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent experiments")
		metricsOut   = cliflags.Metrics()
		selectorFlag = cliflags.Selector() // overrides the policy of every experiment
		startProf    = cliflags.Profile()
	)
	flag.Parse()

	if *list {
		for _, e := range eval.Experiments() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return
	}
	stopProf, err := startProf()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()
	opt := eval.Options{Seed: *seed, Quick: *quick, CollectMetrics: metricsOut.On()}
	if opt.Policy, err = selectorFlag.Policy(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		stopProf()
		os.Exit(1)
	}
	outs, err := eval.RunAll(opt, *workers, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		stopProf()
		os.Exit(1)
	}

	failed := 0
	for _, o := range outs {
		fmt.Printf("==== %s: %s ====\n", o.ID, o.Title)
		if o.Err != nil {
			fmt.Printf("ERROR: %v\n\n", o.Err)
			failed++
			continue
		}
		fmt.Print(o.Text)
		fmt.Printf("(%.1fs)\n\n", o.Elapsed.Seconds())
	}
	if failed > 0 {
		stopProf()
		os.Exit(1)
	}
	// Merge per-experiment snapshots in registry order so the combined
	// snapshot is independent of worker count.
	var snaps []metrics.Snapshot
	for _, o := range outs {
		if o.Metrics != nil {
			snaps = append(snaps, *o.Metrics)
		}
	}
	merged := metrics.Merge(snaps...)
	what := fmt.Sprintf("merged snapshot of %d experiments", len(snaps))
	if err := metricsOut.Write(os.Stdout, &merged, what); err != nil {
		fmt.Fprintln(os.Stderr, err)
		stopProf()
		os.Exit(1)
	}
}
