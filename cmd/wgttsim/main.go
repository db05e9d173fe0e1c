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
	"wgtt/internal/trace"
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
		domains  = flag.Int("domains", 1, "controller domains (DESIGN.md §13; 1 = single controller)")
		verbose  = flag.Bool("v", false, "per-second progress")
		traceOut = flag.String("trace", "", "write a JSONL event trace to this file")
		urbanOn  = flag.Bool("urban", false,
			"run the street-grid city workload (DESIGN.md §16) instead of the corridor; "+
				"-speed/-clients/-pattern are ignored, and -rate is per client (try 0.5)")
		applyCityFlags = cliflags.City()
		selectorFlag   = cliflags.Selector()
		chaosFlags     = cliflags.Chaos()
		metricsOut     = cliflags.Metrics()
	)
	flag.Parse()

	mode := core.ModeWGTT
	if *modeFlag == "baseline" {
		mode = core.ModeBaseline
	}
	var s core.Scenario
	switch {
	case *urbanOn:
		ucfg := urban.DefaultConfig()
		applyCityFlags(&ucfg)
		s = core.UrbanScenario(mode, ucfg, *seed)
	case *clients <= 1:
		s = core.DriveScenario(mode, *speed, *seed)
	default:
		pat := mobility.Following
		switch *pattern {
		case "parallel":
			pat = mobility.Parallel
		case "opposing":
			pat = mobility.Opposing
		}
		s = core.MultiClientScenario(mode, pat, *clients, *speed, *seed)
	}
	if !*urbanOn {
		s.Domains = *domains
	}
	s.Chaos = chaosFlags()
	var err error
	if s.Selector, err = selectorFlag.Config(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	n, err := core.Build(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "build:", err)
		os.Exit(1)
	}
	// Urban scenarios expand their AP/client sets inside Build; adopt the
	// expanded form for the flow setup and the summary below.
	s = n.Scenario
	if metricsOut.On() {
		n.EnableMetrics()
	}

	var tcps []*core.DownTCP
	var udps []*core.DownUDP
	for c := 0; c < len(s.Clients); c++ {
		if *proto == "tcp" {
			f := n.AddDownlinkTCP(c, 0, nil)
			f.Sender.Start()
			tcps = append(tcps, f)
		} else {
			f := n.AddDownlinkUDP(c, *rate, 1400)
			f.Sender.Start()
			udps = append(udps, f)
		}
	}
	if *verbose {
		n.Every(sim.Second, func(at sim.Time) {
			fmt.Printf("t=%5.1fs serving=%d\n", at.Seconds(), n.ServingAP(0))
		})
	}
	var rec *trace.Recorder
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		defer f.Close()
		rec = trace.NewRecorder(f)
		n.AttachRecorder(rec)
	}
	n.Run()
	if rec != nil {
		if err := rec.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
		} else {
			fmt.Printf("trace: %d events -> %s\n", rec.N, *traceOut)
		}
	}

	if n.Urban != nil {
		st := n.Urban.Stats
		fmt.Printf("scenario: %v, %dx%d city (%d street APs), %d client(s), %v, seed %d\n",
			mode, s.Urban.Rows, s.Urban.Cols, len(n.APPosition), len(s.Clients), s.Duration, *seed)
		fmt.Printf("city: %d bus(es) / %d riders / %d cars / %d pedestrians, %d turns, %d light stops, %d route crossings\n",
			st.Buses, st.Riders, st.Cars, st.Pedestrians, st.Turns, st.LightStops, st.RouteCrossings)
	} else {
		fmt.Printf("scenario: %v, %.0f mph, %d client(s), %v, seed %d\n",
			mode, *speed, len(s.Clients), s.Duration, *seed)
	}
	for c := range s.Clients {
		var mbps float64
		if *proto == "tcp" {
			mbps = float64(tcps[c].Receiver.DeliveredBytes) * 8 / 1e6 / s.Duration.Seconds()
			fmt.Printf("client %d: TCP %6.2f Mb/s (%d rtx, %d timeouts)\n",
				c+1, mbps, tcps[c].Sender.Retransmits, tcps[c].Sender.Timeouts)
		} else {
			mbps = float64(udps[c].Receiver.Bytes) * 8 / 1e6 / s.Duration.Seconds()
			fmt.Printf("client %d: UDP %6.2f Mb/s (loss %.3f)\n",
				c+1, mbps, udps[c].Receiver.LossRate())
		}
	}
	if mode == core.ModeWGTT {
		st := n.CtlStats()
		fmt.Printf("controller: %d switches (%d retransmitted stops), %d CSI reports, uplink %d unique / %d dup\n",
			st.SwitchesDone, st.StopRetransmits, st.CSIReports, st.UplinkUnique, st.UplinkDuplicate)
		if n.Fed != nil {
			fs := n.FedStats()
			fmt.Printf("federation: %d domains, %d handoffs (%d offers, %d aborts), %d cross-domain switches\n",
				s.Domains, fs.Adoptions, fs.OffersSent, fs.Aborts, fs.CrossSwitches)
		}
	} else {
		fmt.Printf("baseline: %d handovers\n", len(n.Base.Handovers))
	}
	fmt.Printf("medium: %.0f%% airtime, %d tx collisions, %d/%d response collisions\n",
		100*n.Medium.Utilization(), n.Medium.TxCollisions, n.Medium.RespCollisions, n.Medium.RespTotal)
	if n.Chaos != nil {
		cs := n.Chaos.Stats
		fmt.Printf("chaos: %d AP crashes (%d restarts, %d skipped), %d burst drops, %d CSI-blackout drops\n",
			cs.APCrashes, cs.APRestarts, cs.CrashesSkipped, cs.BurstDrops, cs.BlackoutDrops)
		if mode == core.ModeWGTT {
			st := n.CtlStats()
			fmt.Printf("recovery: %d APs marked dead, %d readmitted, %d forced switches, %d health probes\n",
				st.APsMarkedDead, st.APsReadmitted, st.ForcedSwitches, st.HealthProbes)
		}
	}
	if metricsOut.On() {
		snap := n.Metrics.Snapshot()
		if err := metricsOut.Write(os.Stdout, &snap, "snapshot"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
