// Command wgttsim runs one WGTT (or Enhanced 802.11r baseline) scenario and
// prints a throughput/switching summary.
//
// Usage:
//
//	wgttsim -mode wgtt -speed 15 -proto tcp -rate 50 -clients 1 -seed 42
package main

import (
	"flag"
	"fmt"
	"os"

	"wgtt/cmd/internal/cliflags"
	"wgtt/internal/core"
	"wgtt/internal/mobility"
	"wgtt/internal/sim"
	"wgtt/internal/urban"
)

func main() {
	var (
		modeFlag = flag.String("mode", "wgtt", "wgtt | baseline")
		speed    = flag.Float64("speed", 15, "client speed, mph")
		proto    = flag.String("proto", "udp", "udp | tcp")
		rate     = flag.Float64("rate", 50, "UDP offered load, Mb/s")
		clients  = flag.Int("clients", 1, "number of clients (1-3)")
		pattern  = flag.String("pattern", "following", "following | parallel | opposing")
		seed     = flag.Uint64("seed", 42, "scenario seed")
		domains  = cliflags.Domains()
		verbose  = flag.Bool("v", false, "per-second progress")
		traceOut = flag.String("trace", "", "write a JSONL event trace to this file")
		urbanOn  = flag.Bool("urban", false,
			"run the street-grid city workload (DESIGN.md §16) instead of the corridor; "+
				"-speed/-clients/-pattern are ignored, and -rate is per client (try 0.5)")
		applyCityFlags = cliflags.City()
		chaosFlags     = cliflags.Chaos()
		metricsOut     = cliflags.Metrics()
	)
	flag.Parse()

	mode, tcp, pat, err := parseRun(*modeFlag, *proto, *pattern, *clients, *rate, *speed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wgttsim:", err)
		os.Exit(2)
	}
	var s core.Scenario
	switch {
	case *urbanOn:
		ucfg := urban.DefaultConfig()
		applyCityFlags(&ucfg)
		if *domains > 0 {
			ucfg.Domains = *domains
		}
		if s, err = core.UrbanScenario(mode, ucfg, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "build:", err)
			os.Exit(1)
		}
	case *clients == 1:
		s = core.DriveScenario(mode, *speed, *seed)
		s.Domains = *domains
	default:
		s = core.MultiClientScenario(mode, pat, *clients, *speed, *seed)
		s.Domains = *domains
	}
	s.Chaos = chaosFlags()
	n, err := core.Build(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "build:", err)
		os.Exit(1)
	}
	if metricsOut.On() {
		n.EnableMetrics()
	}

	d := n.Attach(core.Loads(len(s.Clients), core.Load{TCP: tcp, RateMbps: *rate}))
	if *verbose {
		n.Every(sim.Second, func(at sim.Time) {
			fmt.Printf("t=%5.1fs serving=%d\n", at.Seconds(), n.ServingAP(0))
		})
	}
	if *traceOut != "" {
		if err := d.TraceTo(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
	}
	if err := n.Run(); err != nil {
		fmt.Fprintln(os.Stderr, err) // a run whose counters do not add up prints no result
		os.Exit(1)
	}
	if events, err := d.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err) // the recorder prefixes its errors "trace:"
		os.Exit(1)
	} else if *traceOut != "" {
		fmt.Printf("trace: %d events -> %s\n", events, *traceOut)
	}

	if city := s.City; city != nil {
		st := city.Stats
		fmt.Printf("scenario: %v, %dx%d city (%d street APs), %d client(s), %v, seed %d\n",
			mode, city.Cfg.Rows, city.Cfg.Cols, len(n.APPosition), len(s.Clients), s.Duration, *seed)
		fmt.Printf("city: %d bus(es) / %d riders / %d cars / %d pedestrians, %d turns, %d light stops, %d route crossings\n",
			st.Buses, st.Riders, st.Cars, st.Pedestrians, st.Turns, st.LightStops, st.RouteCrossings)
	} else {
		fmt.Printf("scenario: %v, %.0f mph, %d client(s), %v, seed %d\n",
			mode, *speed, len(s.Clients), s.Duration, *seed)
	}
	for c, o := range d.Outcomes() {
		if tcp {
			tx := d.TCP[c].Sender
			fmt.Printf("client %d: TCP %6.2f Mb/s (%d rtx, %d timeouts)\n",
				c+1, o.Mbps, tx.Retransmits, tx.Timeouts)
		} else {
			fmt.Printf("client %d: UDP %6.2f Mb/s (loss %.3f)\n", c+1, o.Mbps, o.Loss)
		}
	}
	if mode == core.ModeWGTT {
		st := n.CtlStats()
		fmt.Printf("controller: %d switches (%d retransmitted stops), %d CSI reports, uplink %d unique / %d dup\n",
			st.SwitchesDone, st.StopRetransmits, st.CSIReports, st.UplinkUnique, st.UplinkDuplicate)
		if len(n.Fed.Domains) > 1 {
			fs := n.FedStats()
			fmt.Printf("federation: %d domains, %d handoffs (%d offers, %d aborts), %d cross-domain switches\n",
				s.Domains, fs.Adoptions, fs.OffersSent, fs.Aborts, n.Fed.CrossSwitches())
		}
	} else {
		fmt.Printf("baseline: %d handovers\n", len(n.Base.Handovers))
	}
	fmt.Printf("medium: %.0f%% airtime, %d tx collisions, %d/%d response collisions\n",
		100*n.Medium.Utilization(), n.Medium.TxCollisions, n.Medium.RespCollisions, n.Medium.RespTotal)
	if n.Chaos != nil {
		// Build arms chaos on WGTT networks only, so there is a controller.
		cs := n.Chaos.Stats
		st := n.CtlStats()
		ctl := "" // a one-domain plan draws no controller crash
		if len(n.Fed.Domains) > 1 {
			ctl = fmt.Sprintf(", %d controller crashes (%d restarts, %d skipped)", cs.CtlCrashes, cs.CtlRestarts, cs.CtlSkipped)
		}
		fmt.Printf("chaos: %d AP crashes (%d restarts, %d skipped)%s, %d burst drops, %d CSI-blackout drops\n",
			cs.APCrashes, cs.APRestarts, cs.CrashesSkipped, ctl, cs.BurstDrops, cs.BlackoutDrops)
		fmt.Printf("recovery: %d APs marked dead, %d readmitted, %d forced switches, %d health probes\n",
			st.APsMarkedDead, st.APsReadmitted, st.ForcedSwitches, st.HealthProbes)
	}
	if metricsOut.On() {
		snap := n.Metrics.Snapshot()
		if err := metricsOut.Write(os.Stdout, &snap, "snapshot"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// parseRun checks the flags that choose the run and turns the named ones
// into their values; an unknown name or an out-of-range number is an error
// rather than a silent default.
func parseRun(mode, proto, pattern string, clients int, rate, speed float64) (m core.Mode, tcp bool, pat mobility.Pattern, err error) {
	m, okMode := map[string]core.Mode{
		"wgtt":     core.ModeWGTT,
		"baseline": core.ModeBaseline,
	}[mode]
	pat, okPattern := map[string]mobility.Pattern{
		"following": mobility.Following,
		"parallel":  mobility.Parallel,
		"opposing":  mobility.Opposing,
	}[pattern]
	tcp = proto == "tcp"
	switch {
	case !okMode:
		err = fmt.Errorf("unknown -mode %q (want wgtt or baseline)", mode)
	case !tcp && proto != "udp":
		err = fmt.Errorf("unknown -proto %q (want udp or tcp)", proto)
	case !okPattern:
		err = fmt.Errorf("unknown -pattern %q (want following, parallel or opposing)", pattern)
	case clients < 1 || clients > 3:
		err = fmt.Errorf("-clients %d out of range (want 1-3)", clients)
	case !tcp && !(rate > 0):
		err = fmt.Errorf("-rate %v: a UDP load needs a positive rate", rate)
	case clients > 1 && !(speed > 0):
		err = fmt.Errorf("-speed %v: a multi-client drive needs a positive speed", speed)
	}
	return m, tcp, pat, err
}
