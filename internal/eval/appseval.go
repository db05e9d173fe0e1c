package eval

import (
	"fmt"
	"math"

	"wgtt/internal/apps"
	"wgtt/internal/core"
	"wgtt/internal/mobility"
	"wgtt/internal/sim"
	"wgtt/internal/stats"
)

// Table4Result holds video rebuffer ratios per speed.
type Table4Result struct {
	SpeedsMPH []float64
	WGTT      []float64
	Baseline  []float64
}

// Table4VideoRebuffer reproduces Table 4: a 2.5 Mb/s HD stream with 1.5 s
// pre-buffer played during the drive; rebuffer ratio per system and speed.
func Table4VideoRebuffer(opt Options) (*Table4Result, error) {
	speeds := []float64{5, 10, 15, 20}
	if opt.Quick {
		speeds = []float64{10, 20}
	}
	res := &Table4Result{SpeedsMPH: speeds}
	for _, v := range speeds {
		for _, mode := range []core.Mode{core.ModeWGTT, core.ModeBaseline} {
			s := core.DriveScenario(mode, v, opt.Seed)
			n, err := opt.build(s)
			if err != nil {
				return nil, err
			}
			d := n.Attach([]core.Load{{TCP: true, Record: true}})
			n.Run()
			r := apps.PlayVideo(d.TCP[0].Receiver.Progress, s.Duration)
			if mode == core.ModeWGTT {
				res.WGTT = append(res.WGTT, r.RebufferRatio)
			} else {
				res.Baseline = append(res.Baseline, r.RebufferRatio)
			}
		}
	}
	return res, nil
}

// Render implements Result.
func (r *Table4Result) Render() string {
	t := &stats.Table{Header: []string{"speed(mph)", "WGTT", "Enh-802.11r"}}
	for i := range r.SpeedsMPH {
		t.AddRow(fmt.Sprintf("%.0f", r.SpeedsMPH[i]), stats.F(r.WGTT[i]), stats.F(r.Baseline[i]))
	}
	return "Table 4: video rebuffer ratio (2.5 Mb/s HD, 1.5 s pre-buffer)\n" + t.String()
}

// Fig24Result holds the video-conference frame-rate distributions.
type Fig24Result struct {
	Rows []Fig24Row
}

// Fig24Row summarizes one (app, speed, system) combination.
type Fig24Row struct {
	App           string
	SpeedMPH      float64
	System        string
	P15, P50, P85 float64 // fps quantiles (paper quotes the 85th pct)
}

// Fig24ConferenceFPS reproduces Fig. 24: bidirectional real-time video at
// 5 and 15 mph; the CDF of delivered downlink frames per second for a
// Skype-like HD stream and a Hangouts-like reduced-resolution stream.
func Fig24ConferenceFPS(opt Options) (*Fig24Result, error) {
	speeds := []float64{5, 15}
	if opt.Quick {
		speeds = []float64{15}
	}
	cfgs := []struct {
		name string
		cfg  apps.ConferenceConfig
	}{
		{"Skype-like", apps.SkypeLike()},
		{"Hangouts-like", apps.HangoutsLike()},
	}
	res := &Fig24Result{}
	for _, c := range cfgs {
		for _, v := range speeds {
			for _, mode := range []core.Mode{core.ModeWGTT, core.ModeBaseline} {
				s := core.DriveScenario(mode, v, opt.Seed)
				n, err := opt.build(s)
				if err != nil {
					return nil, err
				}
				down := n.AddDownlinkUDP(0, c.cfg.RateMbps(), c.cfg.PacketBytes)
				down.Receiver.Record = true
				down.Sender.Start()
				// The uplink half of the call shares the medium.
				up := n.AddUplinkUDP(0, c.cfg.RateMbps(), c.cfg.PacketBytes)
				up.Sender.Start()
				n.Run()
				conf := apps.AnalyzeConference(c.cfg, down.Receiver.Arrivals, s.Duration)
				cdf := conf.CDF()
				res.Rows = append(res.Rows, Fig24Row{
					App: c.name, SpeedMPH: v, System: fmtMode(mode),
					P15: cdf.Quantile(0.15), P50: cdf.Quantile(0.5), P85: cdf.Quantile(0.85),
				})
			}
		}
	}
	return res, nil
}

// Render implements Result.
func (r *Fig24Result) Render() string {
	t := &stats.Table{Header: []string{"app", "speed", "system", "p15 fps", "p50 fps", "p85 fps"}}
	for _, row := range r.Rows {
		t.AddRow(row.App, fmt.Sprintf("%.0f mph", row.SpeedMPH), row.System,
			stats.F(row.P15), stats.F(row.P50), stats.F(row.P85))
	}
	return "Fig 24: video-conference delivered frame rate quantiles\n" + t.String()
}

// Table5Result holds page-load times per speed.
type Table5Result struct {
	SpeedsMPH []float64
	WGTT      []float64 // seconds; +Inf = never completed
	Baseline  []float64
}

// Table5PageLoad reproduces Table 5: loading a cached 2.1 MB page during
// the drive. Each drive performs one load, launched as the client reaches
// the first cell boundary (so the load spans handovers, as the paper's
// transit loads do); three seeds are averaged. Drives where the page never
// finishes dominate into the paper's "∞" entry.
func Table5PageLoad(opt Options) (*Table5Result, error) {
	speeds := []float64{5, 10, 15, 20}
	runs := 3
	if opt.Quick {
		speeds = []float64{10, 20}
		runs = 2
	}
	res := &Table5Result{SpeedsMPH: speeds}
	for _, v := range speeds {
		for _, mode := range []core.Mode{core.ModeWGTT, core.ModeBaseline} {
			var finite []float64
			failed := 0
			for run := 0; run < runs; run++ {
				s := core.DriveScenario(mode, v, opt.Seed+uint64(run)*101)
				n, err := opt.build(s)
				if err != nil {
					return nil, err
				}
				var done sim.Time
				completed := false
				flow := n.AddDownlinkTCP(0, apps.PageSegments, func(at sim.Time) {
					done, completed = at, true
				})
				// Launch as the client crosses out of the first cell: the
				// load immediately straddles a handover.
				start := sim.FromSeconds(15 / mobility.MPH(v))
				n.Eng.At(start, flow.Sender.Start)
				n.Run()
				if lt := apps.PageLoadSeconds(start, done, completed); math.IsInf(lt, 1) {
					failed++
				} else {
					finite = append(finite, lt)
				}
			}
			lt := math.Inf(1)
			if failed*2 < runs && len(finite) > 0 {
				var sum float64
				for _, d := range finite {
					sum += d
				}
				lt = sum / float64(len(finite))
			}
			if mode == core.ModeWGTT {
				res.WGTT = append(res.WGTT, lt)
			} else {
				res.Baseline = append(res.Baseline, lt)
			}
		}
	}
	return res, nil
}

// Render implements Result.
func (r *Table5Result) Render() string {
	t := &stats.Table{Header: []string{"speed(mph)", "WGTT(s)", "Enh-802.11r(s)"}}
	for i := range r.SpeedsMPH {
		t.AddRow(fmt.Sprintf("%.0f", r.SpeedsMPH[i]), fmtLoad(r.WGTT[i]), fmtLoad(r.Baseline[i]))
	}
	return "Table 5: 2.1 MB page load time\n" + t.String()
}

func fmtLoad(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.2f", v)
}
