// Command wgtt-fleet deploys N independent WGTT corridor cells — each a
// complete simulated road segment with its own APs, controller, and
// Poisson-arriving vehicles — runs them across a worker pool, and prints a
// fleet-wide deployment report (per-cell capacity table plus merged
// throughput/accuracy/loss distributions).
//
// The report on stdout is a pure function of (flags, fleet seed): running
// with -workers 1 and -workers 8 produces byte-identical output. Timing
// goes to stderr.
//
// Usage:
//
//	wgtt-fleet -cells 32 -seed 7 -workers 8
//	wgtt-fleet -cells 4 -aps 16 -arrivals 12 -trace-dir /tmp/fleet
//	wgtt-fleet -cells 8 -domains 2        # sharded controller tier per cell (DESIGN.md §13)
//	wgtt-fleet -cells 4 -urban -rate 0.5  # street-grid city cells (DESIGN.md §16)
//	wgtt-fleet -metro -rate 1             # one connected city, 2x2 metro cells (DESIGN.md §17)
//	wgtt-fleet -metro -metro-tiles 32x32 -urban-rows 33 -urban-cols 33 \
//	    -urban-spacing 60 -urban-duration 30 -progress   # 1,024-tile metro
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"wgtt/cmd/internal/cliflags"
	"wgtt/internal/fleet"
	"wgtt/internal/metrics"
	"wgtt/internal/sim"
	"wgtt/internal/urban"
)

func main() {
	var (
		cells    = flag.Int("cells", 8, "number of corridor cells")
		seed     = flag.Uint64("seed", 1, "fleet master seed")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent cell simulations")
		fleetCfg = configFlags(flag.CommandLine)
		domains  = cliflags.Domains() // per cell
		traceDir = flag.String("trace-dir", "", "write per-cell (or per-metro-tile) JSONL event traces here; a metro keeps one file open per built tile")
		urbanOn  = flag.Bool("urban", false,
			"make every cell a street-grid city (DESIGN.md §16) instead of a corridor; "+
				"-aps/-spacing/-arrivals/-max-vehicles/-tcp-frac are ignored and -rate is per client (try 0.5)")
		applyCityFlags = cliflags.City()
		chaosFlags     = cliflags.Chaos()
		metricsOut     = cliflags.Metrics()
		metroOn        = flag.Bool("metro", false,
			"run one connected city tiled into metro cells with cross-cell client migration "+
				"(DESIGN.md §17) instead of N independent cells; -cells is ignored, the urban-* "+
				"flags shape the city, and -rate is per client (try 1)")
		metroTiles    = flag.String("metro-tiles", "2x2", "metro cell grid, RxC")
		metroIsolated = flag.Bool("metro-isolated", false,
			"cut the tile seams: clients stay in their birth tile for the whole run (the ext-metro ablation)")
		progressOn = flag.Bool("progress", false,
			"report completion progress (cells done, or metro epochs done) on stderr")
	)
	flag.Parse()
	cfg := fleetCfg()

	if err := checkRun(*cells, *workers, cfg.UDPRateMbps); err != nil {
		fmt.Fprintln(os.Stderr, "wgtt-fleet:", err)
		os.Exit(2)
	}
	fatal := func(msg ...any) {
		fmt.Fprintln(os.Stderr, msg...)
		os.Exit(1)
	}

	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatal("trace-dir:", err)
		}
	}

	cfg.Cells = *cells
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.TraceDir = *traceDir
	cfg.Metrics = metricsOut.On()
	cfg.Chaos = chaosFlags()
	if *progressOn {
		cfg.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "progress: %d/%d\n", done, total)
		}
	}
	if *urbanOn {
		ucfg := urban.DefaultConfig()
		applyCityFlags(&ucfg)
		if *domains > 0 {
			ucfg.Domains = *domains
		}
		cfg.Urban = &ucfg
	} else {
		cfg.Domains = *domains
	}
	if *metroOn {
		tiles, err := urban.ParseTiling(*metroTiles)
		if err != nil {
			fatal("metro-tiles:", err)
		}
		mcfg := urban.DefaultMetroConfig()
		mcfg.Tiles = tiles
		applyCityFlags(&mcfg.City)
		cfg.Metro = &mcfg
		cfg.MetroIsolated = *metroIsolated
	}
	// finish reports the run's side outputs on stderr: the trace tally and
	// the metrics snapshot.
	finish := func(events, files int, snap *metrics.Snapshot, what string) {
		if *traceDir != "" {
			fmt.Fprintf(os.Stderr, "traces: %d events across %d files in %s\n", events, files, *traceDir)
		}
		if err := metricsOut.Write(os.Stderr, snap, what); err != nil {
			fatal(err)
		}
	}
	start := time.Now()
	if *metroOn {
		res, err := fleet.RunMetro(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Print(res.Render())
		traced := 0
		for _, t := range res.Tiles {
			traced += t.TraceEvents
		}
		finish(traced, len(res.Tiles), res.Metrics, "metro snapshot")
		fmt.Fprintf(os.Stderr, "metro %s: %d tiles (%d built) in %.1fs with %d workers\n",
			res.Tiling, res.Tiling.N(), res.BuiltTiles, time.Since(start).Seconds(), *workers)
		return
	}
	res, err := fleet.Run(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Print(res.Render())
	traced := 0
	for _, c := range res.Cells {
		traced += c.TraceEvents
	}
	finish(traced, len(res.Cells), res.MergedMetrics(), fmt.Sprintf("merged snapshot of %d cells", len(res.Cells)))
	fmt.Fprintf(os.Stderr, "%d cells in %.1fs with %d workers\n",
		*cells, time.Since(start).Seconds(), *workers)
}

// checkRun rejects the flag values and combinations that used to run
// something other than what was asked for, or to print a nonsense tally.
func checkRun(cells, workers int, rate float64) error {
	switch {
	case cells < 1:
		return fmt.Errorf("-cells %d: a fleet needs at least one cell", cells)
	case workers < 0:
		return fmt.Errorf("-workers %d: the worker count cannot be negative", workers)
	case !(rate > 0):
		return fmt.Errorf("-rate %v: the UDP load needs a positive rate", rate)
	}
	return nil
}

// configFlags registers on fs one flag per fleet.Config field that shapes
// a corridor cell and its traffic, each defaulting to that field of
// fleet.DefaultConfig(). The returned function gives the config the flags
// describe, once fs is parsed.
func configFlags(fs *flag.FlagSet) func() fleet.Config {
	cfg := fleet.DefaultConfig()
	fs.IntVar(&cfg.APsPerCell, "aps", cfg.APsPerCell, "APs per cell")
	fs.Float64Var(&cfg.SpacingM, "spacing", cfg.SpacingM, "AP spacing, meters")
	fs.Float64Var(&cfg.ArrivalsPerMin, "arrivals", cfg.ArrivalsPerMin, "vehicle arrivals per minute per cell")
	window := fs.Float64("window", cfg.ArrivalWindow.Seconds(), "arrival window, seconds")
	fs.IntVar(&cfg.MaxVehicles, "max-vehicles", cfg.MaxVehicles, "vehicle cap per cell")
	fs.Var((*speedMix)(&cfg.SpeedsMPH), "speeds", "speed mix, `mph` (comma-separated)")
	fs.Float64Var(&cfg.TCPFraction, "tcp-frac", cfg.TCPFraction, "fraction of vehicles with TCP workload (0 = all UDP)")
	fs.Float64Var(&cfg.UDPRateMbps, "rate", cfg.UDPRateMbps, "UDP offered load per vehicle, Mb/s")
	return func() fleet.Config {
		cfg.ArrivalWindow = sim.FromSeconds(*window)
		return cfg
	}
}

// speedMix is the -speeds value: a comma-separated list of positive speeds.
type speedMix []float64

// String implements flag.Value.
func (m *speedMix) String() string {
	var parts []string
	for _, v := range *m {
		parts = append(parts, strconv.FormatFloat(v, 'g', -1, 64))
	}
	return strings.Join(parts, ",")
}

// Set implements flag.Value.
func (m *speedMix) Set(s string) error {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v <= 0 {
			return fmt.Errorf("bad speed %q", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return fmt.Errorf("empty speed mix")
	}
	*m = out
	return nil
}
