// Package cliflags is the one definition of the flags the CLIs share — the
// -urban-* city shape, -domains and -chaos* (wgttsim, wgtt-fleet), -metrics
// (those and wgtt-experiments), -selector (those and wgtt-live) and
// -cpuprofile/-memprofile (wgtt-fleet, wgtt-experiments) — so a flag has the
// same name, meaning and default on every CLI that takes it; a number out
// of a flag's range fails the parse rather than falling back to the default.
// Each function registers its flags on the default flag set (call before
// flag.Parse) and returns the accessor to use after parsing.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"

	"wgtt/internal/chaos"
	"wgtt/internal/metrics"
	"wgtt/internal/selector"
	"wgtt/internal/sim"
	"wgtt/internal/urban"
)

// City registers the -urban-* flags that shape a street-grid city
// (DESIGN.md §16). Each flag's least value, its default, keeps the city's
// own; the returned function overrides the fields of a city config whose
// flags were given anything more.
func City() func(*urban.Config) {
	var (
		rows     = number("urban-rows", 0, 0, false, "city grid rows (0 = default)")
		cols     = number("urban-cols", 0, 0, false, "city grid columns (0 = default)")
		block    = number("urban-block", 0.0, 0, false, "city block edge length, meters (0 = default)")
		spacing  = number("urban-spacing", 0.0, 0, false, "street AP spacing, meters (0 = default)")
		buses    = number("urban-buses", -1, -1, false, "buses per city (-1 = default)")
		riders   = number("urban-riders", -1, -1, false, "riders per bus (-1 = default)")
		cars     = number("urban-cars", -1, -1, false, "routed cars per city (-1 = default)")
		peds     = number("urban-peds", -1, -1, false, "pedestrians per city (-1 = default)")
		duration = number("urban-duration", 0.0, 0, false, "city horizon cap, seconds (0 = default)")
	)
	return func(c *urban.Config) {
		rows.override(&c.Rows)
		cols.override(&c.Cols)
		block.override(&c.BlockM)
		spacing.override(&c.APSpacingM)
		buses.override(&c.Buses)
		riders.override(&c.RidersPerBus)
		cars.override(&c.Cars)
		peds.override(&c.Pedestrians)
		duration.override(&c.MaxDurationS)
	}
}

// Domains registers -domains, the controller domain count (DESIGN.md §13)
// of whichever workload the CLI runs. 0, the default, keeps the workload's
// own count.
func Domains() *int {
	return &number("domains", 0, 0, false, "controller domains (DESIGN.md §13): a corridor's contiguous AP blocks, "+
		"or the city's slabs under -urban (0 = the workload's own: 1 on a corridor, the city's 2)").v
}

// number registers a numeric flag whose out-of-range value fails the parse
// (a usage error, exit 2) instead of being read as "use the default": the
// value must be a finite number of type T, no less than least — above it when
// above is set.
func number[T int | float64](name string, value, least T, above bool, usage string) *bounded[T] {
	b := &bounded[T]{value, least, above}
	flag.Var(b, name, usage)
	return b
}

// bounded is the flag.Value behind number.
type bounded[T int | float64] struct {
	v, least T
	above    bool
}

// String implements flag.Value.
func (b *bounded[T]) String() string { return fmt.Sprint(b.v) }

// Set implements flag.Value.
func (b *bounded[T]) Set(s string) error {
	f, err := strconv.ParseFloat(s, 64)
	if v := T(f); err == nil && float64(v) == f && !math.IsInf(f, 0) && (v > b.least || v == b.least && !b.above) {
		b.v = v
		return nil
	}
	if b.above {
		return fmt.Errorf("want %T > %v", b.least, b.least)
	}
	return fmt.Errorf("want %T >= %v", b.least, b.least)
}

// override sets *field to the flag's value unless the flag holds its least
// value.
func (b *bounded[T]) override(field *T) {
	if b.v != b.least {
		*field = b.v
	}
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
		mtbf     = number("chaos-ap-mtbf", 60.0, 0, true, "AP-crash mean time between failures, seconds")
		downtime = number("chaos-downtime", 2.0, 0, true, "AP downtime before restart, seconds")
	)
	return func() *chaos.Config {
		if !*on {
			return nil
		}
		c := chaos.DefaultConfig()
		c.APCrashMTBF = sim.FromSeconds(mtbf.v)
		c.APDowntime = sim.FromSeconds(downtime.v)
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
