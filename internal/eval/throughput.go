package eval

import (
	"fmt"
	"strings"

	"wgtt/internal/controller"
	"wgtt/internal/core"
	"wgtt/internal/mobility"
	"wgtt/internal/sim"
	"wgtt/internal/stats"
)

// offeredUDPMbps is the CBR load used for UDP throughput comparisons,
// matching the paper's saturating iperf3 loads.
const offeredUDPMbps = 50

// Fig13Result holds TCP and UDP throughput versus speed for both systems.
type Fig13Result struct {
	SpeedsMPH []float64
	TCPWGTT   []float64
	TCPBase   []float64
	UDPWGTT   []float64
	UDPBase   []float64
}

// Fig13ThroughputVsSpeed reproduces Fig. 13: single-client TCP and UDP
// downlink throughput as driving speed varies, WGTT vs Enhanced 802.11r.
func Fig13ThroughputVsSpeed(opt Options) (*Fig13Result, error) {
	speeds := []float64{0, 5, 10, 15, 20, 25, 35}
	if opt.Quick {
		speeds = []float64{5, 25}
	}
	res := &Fig13Result{SpeedsMPH: speeds}
	tcp := core.Load{TCP: true}
	udp := core.Load{RateMbps: offeredUDPMbps}
	for _, v := range speeds {
		for _, c := range []struct {
			col  *[]float64
			mode core.Mode
			load core.Load
		}{
			{&res.TCPWGTT, core.ModeWGTT, tcp},
			{&res.TCPBase, core.ModeBaseline, tcp},
			{&res.UDPWGTT, core.ModeWGTT, udp},
			{&res.UDPBase, core.ModeBaseline, udp},
		} {
			d, err := opt.drive(core.DriveScenario(c.mode, v, opt.Seed), c.load)
			if err != nil {
				return nil, err
			}
			*c.col = append(*c.col, d.Outcome(0).Mbps)
		}
	}
	return res, nil
}

// Render implements Result.
func (r *Fig13Result) Render() string {
	t := &stats.Table{Header: []string{"speed(mph)", "TCP-WGTT", "TCP-base", "TCP-gain", "UDP-WGTT", "UDP-base", "UDP-gain"}}
	for i, v := range r.SpeedsMPH {
		t.AddRow(fmt.Sprintf("%.0f", v),
			stats.F(r.TCPWGTT[i]), stats.F(r.TCPBase[i]), gain(r.TCPWGTT[i], r.TCPBase[i]),
			stats.F(r.UDPWGTT[i]), stats.F(r.UDPBase[i]), gain(r.UDPWGTT[i], r.UDPBase[i]))
	}
	return "Fig 13: throughput vs speed (Mb/s)\n" + t.String()
}

func gain(a, b float64) string {
	if b <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", a/b)
}

// TimelineResult is the Fig. 14/15 style view: throughput per 100 ms bin
// plus the AP-association timeline for one drive.
type TimelineResult struct {
	Label     string
	Bin       sim.Time
	Mbps      []float64
	BitrateTS []float64 // per-bin mean link bit rate of transmitted frames
	// APSeq samples the serving AP per bin (-1 when unknown).
	APSeq []int
	// Switches is the total number of AP changes during the drive.
	Switches int
	// Timeouts is the TCP sender's RTO count (TCP runs only).
	Timeouts uint64
}

// Timeline reproduces one curve of Fig. 14 (tcp) or Fig. 15 (UDP):
// throughput and AP association over time during a 15 mph drive, for the
// given mode.
func Timeline(mode core.Mode, opt Options, tcp bool) (*TimelineResult, error) {
	s := core.DriveScenario(mode, 15, opt.Seed)
	n, err := opt.build(s)
	if err != nil {
		return nil, err
	}
	bin := 100 * sim.Millisecond
	ts := stats.NewThroughputSeries(bin)
	nbins := int(s.Duration/bin) + 1
	rateSum := make([]float64, nbins)
	rateN := make([]int, nbins)
	for _, a := range n.APs {
		a.OnFrameTx = func(rate float64, mpdus int, at sim.Time) {
			b := int(at / bin)
			if b < nbins {
				rateSum[b] += rate
				rateN[b]++
			}
		}
	}

	d := n.Attach([]core.Load{{TCP: tcp, RateMbps: offeredUDPMbps}})
	if tcp {
		d.TCP[0].Receiver.OnDeliver = func(_ uint32, bytes int, at sim.Time) { ts.Add(at, bytes) }
	} else {
		rx := d.UDP[0].Receiver
		prev := uint64(0)
		n.Every(bin, func(at sim.Time) {
			ts.Add(at-1, int(rx.Bytes-prev))
			prev = rx.Bytes
		})
	}

	res := &TimelineResult{Label: fmt.Sprintf("%s 15mph %s", fmtMode(mode), proto(tcp)), Bin: bin}
	last := -2
	n.Every(bin, func(at sim.Time) {
		cur := n.ServingAP(0)
		res.APSeq = append(res.APSeq, cur)
		if cur != last && last != -2 {
			res.Switches++
		}
		last = cur
	})
	n.Run()
	res.Mbps = ts.Mbps()
	for b := 0; b < nbins; b++ {
		if rateN[b] > 0 {
			res.BitrateTS = append(res.BitrateTS, rateSum[b]/float64(rateN[b]))
		} else {
			res.BitrateTS = append(res.BitrateTS, 0)
		}
	}
	if tcp {
		res.Timeouts = d.TCP[0].Sender.Timeouts
	}
	return res, nil
}

func proto(tcp bool) string {
	if tcp {
		return "TCP"
	}
	return "UDP"
}

// Render implements Result.
func (r *TimelineResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Timeline (%s), %v bins, %d AP switches, %d TCP timeouts\n",
		r.Label, r.Bin, r.Switches, r.Timeouts)
	b.WriteString(seriesString("  Mb/s ", r.Mbps, 1))
	b.WriteString(seriesString("  rate ", r.BitrateTS, 0))
	b.WriteString("  APseq:")
	for _, a := range r.APSeq {
		fmt.Fprintf(&b, " %d", a)
	}
	b.WriteString("\n")
	return b.String()
}

// Fig16Result is the link bit-rate CDF comparison.
type Fig16Result struct {
	// Quantiles of the transmitted-frame bit rate per (system, protocol).
	Rows []Fig16Row
}

// Fig16Row is one CDF summary.
type Fig16Row struct {
	System, Proto       string
	P10, P50, P90, P100 float64
}

// Fig16BitrateCDF reproduces Fig. 16: the CDF of the link bit rate during a
// 15 mph drive (TCP and UDP), WGTT vs Enhanced 802.11r.
func Fig16BitrateCDF(opt Options) (*Fig16Result, error) {
	res := &Fig16Result{}
	for _, mode := range []core.Mode{core.ModeWGTT, core.ModeBaseline} {
		for _, tcp := range []bool{true, false} {
			s := core.DriveScenario(mode, 15, opt.Seed)
			n, err := opt.build(s)
			if err != nil {
				return nil, err
			}
			cdf := &stats.CDF{}
			for _, a := range n.APs {
				a.OnFrameTx = func(rate float64, mpdus int, _ sim.Time) {
					// Weight by MPDUs so the distribution reflects data
					// volume, as a packet capture would.
					for i := 0; i < mpdus; i++ {
						cdf.Add(rate)
					}
				}
			}
			n.Attach([]core.Load{{TCP: tcp, RateMbps: offeredUDPMbps}})
			n.Run()
			res.Rows = append(res.Rows, Fig16Row{
				System: fmtMode(mode), Proto: proto(tcp),
				P10: cdf.Quantile(0.1), P50: cdf.Quantile(0.5),
				P90: cdf.Quantile(0.9), P100: cdf.Quantile(1),
			})
		}
	}
	return res, nil
}

// Render implements Result.
func (r *Fig16Result) Render() string {
	t := &stats.Table{Header: []string{"system", "proto", "p10", "p50", "p90", "max"}}
	for _, row := range r.Rows {
		t.AddRow(row.System, row.Proto, stats.F(row.P10), stats.F(row.P50), stats.F(row.P90), stats.F(row.P100))
	}
	return "Fig 16: link bit rate CDF quantiles (Mb/s), 15 mph\n" + t.String()
}

// Fig17Result holds per-client throughput vs number of clients.
type Fig17Result struct {
	Clients []int
	Rows    map[string][]float64 // "TCP-WGTT" etc → per-count mean per-client Mb/s
}

// Fig17MultiClient reproduces Fig. 17: average per-client downlink
// throughput with 1–3 clients at 15 mph.
func Fig17MultiClient(opt Options) (*Fig17Result, error) {
	counts := []int{1, 2, 3}
	if opt.Quick {
		counts = []int{1, 2}
	}
	res := &Fig17Result{Clients: counts, Rows: map[string][]float64{}}
	for _, nc := range counts {
		for _, mode := range []core.Mode{core.ModeWGTT, core.ModeBaseline} {
			for _, tcp := range []bool{true, false} {
				s := core.MultiClientScenario(mode, mobility.Following, nc, 15, opt.Seed)
				load := core.Load{TCP: tcp, RateMbps: offeredUDPMbps/float64(nc) + 10}
				d, err := opt.drive(s, core.Loads(nc, load)...)
				if err != nil {
					return nil, err
				}
				key := proto(tcp) + "-" + fmtMode(mode)
				res.Rows[key] = append(res.Rows[key], meanMbps(d))
			}
		}
	}
	return res, nil
}

// Render implements Result.
func (r *Fig17Result) Render() string {
	t := &stats.Table{Header: []string{"clients", "TCP-WGTT", "TCP-Enh-802.11r", "UDP-WGTT", "UDP-Enh-802.11r"}}
	for i, nc := range r.Clients {
		t.AddRow(fmt.Sprintf("%d", nc),
			stats.F(r.Rows["TCP-WGTT"][i]), stats.F(r.Rows["TCP-Enh-802.11r"][i]),
			stats.F(r.Rows["UDP-WGTT"][i]), stats.F(r.Rows["UDP-Enh-802.11r"][i]))
	}
	return "Fig 17: per-client throughput vs client count (Mb/s), 15 mph\n" + t.String()
}

// Fig20Result holds throughput for the three driving patterns.
type Fig20Result struct {
	Patterns []string
	Rows     map[string][]float64
}

// Fig20DrivingPatterns reproduces Fig. 20: two clients at 15 mph in
// following / parallel / opposing arrangements.
func Fig20DrivingPatterns(opt Options) (*Fig20Result, error) {
	pats := []mobility.Pattern{mobility.Following, mobility.Parallel, mobility.Opposing}
	res := &Fig20Result{Rows: map[string][]float64{}}
	for _, p := range pats {
		res.Patterns = append(res.Patterns, p.String())
		for _, mode := range []core.Mode{core.ModeWGTT, core.ModeBaseline} {
			for _, tcp := range []bool{true, false} {
				s := core.MultiClientScenario(mode, p, 2, 15, opt.Seed)
				// The paper sends 15 Mb/s CBR per client here.
				d, err := opt.drive(s, core.Loads(2, core.Load{TCP: tcp, RateMbps: 15})...)
				if err != nil {
					return nil, err
				}
				key := proto(tcp) + "-" + fmtMode(mode)
				res.Rows[key] = append(res.Rows[key], meanMbps(d))
			}
		}
	}
	return res, nil
}

// Render implements Result.
func (r *Fig20Result) Render() string {
	t := &stats.Table{Header: []string{"pattern", "TCP-WGTT", "TCP-Enh-802.11r", "UDP-WGTT", "UDP-Enh-802.11r"}}
	for i, p := range r.Patterns {
		t.AddRow(p,
			stats.F(r.Rows["TCP-WGTT"][i]), stats.F(r.Rows["TCP-Enh-802.11r"][i]),
			stats.F(r.Rows["UDP-WGTT"][i]), stats.F(r.Rows["UDP-Enh-802.11r"][i]))
	}
	return "Fig 20: per-client throughput by driving pattern (Mb/s), 2 clients, 15 mph\n" + t.String()
}

// Fig22Result holds TCP throughput for different switching hysteresis T.
type Fig22Result struct {
	HysteresisMS []float64
	Mbps         []float64
	Switches     []int
}

// Fig22Hysteresis reproduces Fig. 22: WGTT TCP throughput at 15 mph with
// time hysteresis T = 40/80/120 ms.
func Fig22Hysteresis(opt Options) (*Fig22Result, error) {
	ts := []sim.Time{40 * sim.Millisecond, 80 * sim.Millisecond, 120 * sim.Millisecond}
	if opt.Quick {
		ts = ts[:2]
	}
	res := &Fig22Result{}
	for _, T := range ts {
		s := core.DriveScenario(core.ModeWGTT, 15, opt.Seed)
		cfg := controller.DefaultConfig()
		cfg.Hysteresis = T
		s.Controller = &cfg
		d, err := opt.drive(s, core.Load{TCP: true})
		if err != nil {
			return nil, err
		}
		res.HysteresisMS = append(res.HysteresisMS, T.Milliseconds())
		res.Mbps = append(res.Mbps, d.Outcome(0).Mbps)
		res.Switches = append(res.Switches, len(d.Net.Ctl.History))
	}
	return res, nil
}

// Render implements Result.
func (r *Fig22Result) Render() string {
	t := &stats.Table{Header: []string{"hysteresis(ms)", "TCP Mb/s", "switches"}}
	for i := range r.HysteresisMS {
		t.AddRow(stats.F(r.HysteresisMS[i]), stats.F(r.Mbps[i]), fmt.Sprintf("%d", r.Switches[i]))
	}
	return "Fig 22: WGTT TCP throughput vs switching hysteresis, 15 mph\n" + t.String()
}

// Fig23Result holds UDP throughput in dense vs sparse AP segments.
type Fig23Result struct {
	SpeedsMPH []float64
	Rows      map[string][]float64 // "dense-WGTT" etc
}

// Fig23APDensity reproduces Fig. 23: UDP throughput while transiting the
// densely deployed APs (AP2–AP4) vs the sparse segment (AP5–AP7), at low
// speeds, for both systems.
func Fig23APDensity(opt Options) (*Fig23Result, error) {
	speeds := []float64{2, 4, 6, 8, 10}
	if opt.Quick {
		speeds = []float64{4, 8}
	}
	segments := map[string][]int{
		"dense":  {1, 2, 3}, // paper's AP2–AP4
		"sparse": {4, 5, 6}, // paper's AP5–AP7
	}
	res := &Fig23Result{SpeedsMPH: speeds, Rows: map[string][]float64{}}
	for _, v := range speeds {
		for seg, subset := range segments {
			for _, mode := range []core.Mode{core.ModeWGTT, core.ModeBaseline} {
				// Only this segment's APs, and the drive spans just them.
				all := mobility.DefaultAPPositions()
				var pos []mobility.Point
				for _, i := range subset {
					pos = append(pos, all[i])
				}
				s := core.DriveScenario(mode, v, opt.Seed)
				s.APPositions = pos
				s.Clients[0].Trace = mobility.TransitDrive(pos, v, 8)
				s.Duration = mobility.TransitDuration(pos, v, 8) + sim.Second
				d, err := opt.drive(s, core.Load{RateMbps: offeredUDPMbps})
				if err != nil {
					return nil, err
				}
				key := seg + "-" + fmtMode(mode)
				res.Rows[key] = append(res.Rows[key], d.Outcome(0).Mbps)
			}
		}
	}
	return res, nil
}

// Render implements Result.
func (r *Fig23Result) Render() string {
	t := &stats.Table{Header: []string{"speed(mph)", "dense-WGTT", "dense-Enh", "sparse-WGTT", "sparse-Enh"}}
	for i, v := range r.SpeedsMPH {
		t.AddRow(fmt.Sprintf("%.0f", v),
			stats.F(r.Rows["dense-WGTT"][i]), stats.F(r.Rows["dense-Enh-802.11r"][i]),
			stats.F(r.Rows["sparse-WGTT"][i]), stats.F(r.Rows["sparse-Enh-802.11r"][i]))
	}
	return "Fig 23: UDP throughput, dense (AP2-4) vs sparse (AP5-7) segments (Mb/s)\n" + t.String()
}
