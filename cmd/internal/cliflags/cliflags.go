// Package cliflags is the one definition of the flags the CLIs share — the
// -urban-* city shape, -domains and -chaos* (wgttsim, wgtt-fleet), -metrics
// (those and wgtt-experiments), -selector (those and wgtt-live) and
// -cpuprofile/-memprofile (wgtt-fleet, wgtt-experiments) — so a flag has the
// same name, meaning and default on every CLI that takes it.
// Each function registers its flags on the default flag set (call before
// flag.Parse) and returns the accessor to use after parsing.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"wgtt/internal/chaos"
	"wgtt/internal/metrics"
	"wgtt/internal/selector"
	"wgtt/internal/sim"
	"wgtt/internal/urban"
)

// City registers the -urban-* flags that shape a street-grid city
// (DESIGN.md §16). The returned function overrides the fields of a city
// config whose flags were set.
func City() func(*urban.Config) {
	var (
		rows     = flag.Int("urban-rows", 0, "city grid rows (0 = default)")
		cols     = flag.Int("urban-cols", 0, "city grid columns (0 = default)")
		block    = flag.Float64("urban-block", 0, "city block edge length, meters (0 = default)")
		spacing  = flag.Float64("urban-spacing", 0, "street AP spacing, meters (0 = default)")
		buses    = flag.Int("urban-buses", -1, "buses per city (-1 = default)")
		riders   = flag.Int("urban-riders", -1, "riders per bus (-1 = default)")
		cars     = flag.Int("urban-cars", -1, "routed cars per city (-1 = default)")
		peds     = flag.Int("urban-peds", -1, "pedestrians per city (-1 = default)")
		duration = flag.Float64("urban-duration", 0, "city horizon cap, seconds (0 = default)")
	)
	return func(c *urban.Config) {
		if *rows > 0 {
			c.Rows = *rows
		}
		if *cols > 0 {
			c.Cols = *cols
		}
		if *block > 0 {
			c.BlockM = *block
		}
		if *spacing > 0 {
			c.APSpacingM = *spacing
		}
		if *buses >= 0 {
			c.Buses = *buses
		}
		if *riders >= 0 {
			c.RidersPerBus = *riders
		}
		if *cars >= 0 {
			c.Cars = *cars
		}
		if *peds >= 0 {
			c.Pedestrians = *peds
		}
		if *duration > 0 {
			c.MaxDurationS = *duration
		}
	}
}

// Domains registers -domains, the controller domain count (DESIGN.md §13)
// of whichever workload the CLI runs. 0, the default, keeps the workload's
// own count.
func Domains() *int {
	return flag.Int("domains", 0, "controller domains (DESIGN.md §13): a corridor's contiguous AP blocks, "+
		"or the city's slabs under -urban (0 = the workload's own: 1 on a corridor, the city's 2)")
}

// SelectorFlag is the -selector value.
type SelectorFlag struct{ name *string }

// Selector registers -selector.
func Selector() SelectorFlag {
	return SelectorFlag{flag.String("selector", "",
		"AP-selection policy (DESIGN.md §15): windowed-median | predictive | global-assign")}
}

// Policy is the named policy; unset resolves to the default one.
func (f SelectorFlag) Policy() (selector.Policy, error) {
	pol, err := selector.ParsePolicy(*f.name)
	if err != nil {
		return "", fmt.Errorf("selector: %w", err)
	}
	return pol, nil
}

// Chaos registers -chaos and its tuning flags. The returned function gives
// the fault-injection config, nil unless -chaos was set.
func Chaos() func() *chaos.Config {
	var (
		on       = flag.Bool("chaos", false, "enable deterministic fault injection (DESIGN.md §11)")
		mtbf     = flag.Float64("chaos-ap-mtbf", 60, "AP-crash mean time between failures, seconds")
		downtime = flag.Float64("chaos-downtime", 2, "AP downtime before restart, seconds")
	)
	return func() *chaos.Config {
		if !*on {
			return nil
		}
		c := chaos.DefaultConfig()
		c.APCrashMTBF = sim.FromSeconds(*mtbf)
		c.APDowntime = sim.FromSeconds(*downtime)
		return &c
	}
}

// MetricsOut is the -metrics destination.
type MetricsOut struct{ path *string }

// Metrics registers -metrics.
func Metrics() MetricsOut {
	return MetricsOut{flag.String("metrics", "",
		"write a metrics snapshot (JSON) to this file; '-' prints a table to stdout")}
}

// On reports whether a snapshot was asked for, i.e. whether the run should
// record metrics at all.
func (m MetricsOut) On() bool { return *m.path != "" }

// Write writes the snapshot to the -metrics destination and, for a file,
// announces it on w as "metrics: <what> -> <file>". It does nothing when
// the flag is unset or the run produced no snapshot.
func (m MetricsOut) Write(w io.Writer, snap *metrics.Snapshot, what string) error {
	if !m.On() || snap == nil {
		return nil
	}
	if err := snap.WriteFile(*m.path); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if *m.path != "-" {
		fmt.Fprintf(w, "metrics: %s -> %s\n", what, *m.path)
	}
	return nil
}

// Profile registers -cpuprofile and -memprofile, so the hot-path numbers
// behind DESIGN.md §9 are reproducible with the stock pprof toolchain (`go
// tool pprof wgtt-fleet cpu.out`). The returned function begins CPU
// profiling if asked and returns an idempotent stop that finishes the CPU
// profile and writes the heap profile. Callers invoke stop on every exit
// path, including before os.Exit, which skips defers.
func Profile() func() (stop func(), err error) {
	var (
		cpu = flag.String("cpuprofile", "", "write a CPU profile to this file")
		mem = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	return func() (func(), error) {
		var cpuFile *os.File
		if *cpu != "" {
			var err error
			if cpuFile, err = os.Create(*cpu); err != nil {
				return nil, fmt.Errorf("cpuprofile: %w", err)
			}
			if err := pprof.StartCPUProfile(cpuFile); err != nil {
				cpuFile.Close()
				return nil, fmt.Errorf("cpuprofile: %w", err)
			}
		}
		done := false
		return func() {
			if done {
				return
			}
			done = true
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			if *mem == "" {
				return
			}
			mf, err := os.Create(*mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer mf.Close()
			runtime.GC() // settle live-heap numbers before the snapshot
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}, nil
	}
}
