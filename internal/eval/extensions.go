package eval

import (
	"fmt"

	"wgtt/internal/chaos"
	"wgtt/internal/core"
	"wgtt/internal/mobility"
	"wgtt/internal/stats"
)

// These experiments go beyond the paper's evaluation into its §7 discussion
// items: multi-channel deployments, the omnidirectional small-cell variant,
// and robustness of the switching protocol to backhaul control loss.

// ExtMultiChannelResult compares single- vs multi-channel deployments.
type ExtMultiChannelResult struct {
	Channels       []int
	PerClientMbps  []float64 // downlink UDP per client
	UplinkLoss     []float64 // mean in-coverage uplink loss
	SwitchesPerSec []float64
}

// ExtMultiChannel measures §7's predicted trade-off with three clients at
// 15 mph: spreading adjacent APs over three channels relieves co-channel
// contention (downlink per-client throughput rises) but breaks cross-AP
// overhearing, so uplink diversity — Fig. 18's benefit — degrades.
func ExtMultiChannel(opt Options) (*ExtMultiChannelResult, error) {
	res := &ExtMultiChannelResult{}
	chans := []int{1, 3}
	for _, c := range chans {
		s := core.MultiClientScenario(core.ModeWGTT, mobility.Following, 3, 15, opt.Seed)
		s.Channels = c
		n, err := opt.build(s)
		if err != nil {
			return nil, err
		}
		d := n.Attach(core.Loads(3, core.Load{RateMbps: 20}))
		var ups []*core.UpUDP
		for ci := 0; ci < 3; ci++ {
			u := n.AddUplinkUDP(ci, 2, 1000)
			u.Receiver.Record = true
			u.Sender.Start()
			ups = append(ups, u)
		}
		n.Run()
		var loss float64
		for _, u := range ups {
			loss += inCoverageLoss(perSecondLoss(u, 2, 1000, s.Duration))
		}
		res.Channels = append(res.Channels, c)
		res.PerClientMbps = append(res.PerClientMbps, meanMbps(d))
		res.UplinkLoss = append(res.UplinkLoss, loss/3)
		res.SwitchesPerSec = append(res.SwitchesPerSec,
			float64(len(n.Ctl.History))/s.Duration.Seconds())
	}
	return res, nil
}

// Render implements Result.
func (r *ExtMultiChannelResult) Render() string {
	t := &stats.Table{Header: []string{"channels", "per-client down (Mb/s)", "uplink loss", "switches/s"}}
	for i := range r.Channels {
		t.AddRow(fmt.Sprintf("%d", r.Channels[i]), stats.F(r.PerClientMbps[i]),
			fmt.Sprintf("%.4f", r.UplinkLoss[i]), stats.F(r.SwitchesPerSec[i]))
	}
	return "Extension (§7): single vs multi-channel deployment, 3 clients, 15 mph\n" + t.String()
}

// ExtControlLossResult measures switching-protocol robustness.
type ExtControlLossResult struct {
	LossRate        []float64
	SwitchesDone    []uint64
	StopRetransmits []uint64
	MeanSwitchMS    []float64
	GoodputMbps     []float64
}

// ExtControlLoss injects backhaul loss on stop/start/ack messages and
// verifies the 30 ms retransmission timeout (§3.1.2) keeps the system
// functional: switches complete (more slowly) and goodput degrades
// gracefully rather than collapsing.
func ExtControlLoss(opt Options) (*ExtControlLossResult, error) {
	rates := []float64{0, 0.2, 0.5}
	if opt.Quick {
		rates = []float64{0, 0.5}
	}
	res := &ExtControlLossResult{}
	for _, lr := range rates {
		s := core.DriveScenario(core.ModeWGTT, 15, opt.Seed)
		if lr > 0 {
			s.Chaos = &chaos.Config{ControlLoss: lr}
		}
		d, err := opt.drive(s, core.Load{RateMbps: offeredUDPMbps})
		if err != nil {
			return nil, err
		}
		ctl := d.Net.Ctl
		c := &stats.CDF{}
		for _, rec := range ctl.History {
			c.Add(rec.Duration.Milliseconds())
		}
		res.LossRate = append(res.LossRate, lr)
		res.SwitchesDone = append(res.SwitchesDone, ctl.Stats.SwitchesDone)
		res.StopRetransmits = append(res.StopRetransmits, ctl.Stats.StopRetransmits)
		res.MeanSwitchMS = append(res.MeanSwitchMS, c.Mean())
		res.GoodputMbps = append(res.GoodputMbps, d.Outcome(0).Mbps)
	}
	return res, nil
}

// Render implements Result.
func (r *ExtControlLossResult) Render() string {
	t := &stats.Table{Header: []string{"ctl-loss", "switches", "stop-rtx", "mean-switch(ms)", "UDP Mb/s"}}
	for i := range r.LossRate {
		t.AddRow(fmt.Sprintf("%.0f%%", 100*r.LossRate[i]),
			fmt.Sprintf("%d", r.SwitchesDone[i]),
			fmt.Sprintf("%d", r.StopRetransmits[i]),
			stats.F(r.MeanSwitchMS[i]), stats.F(r.GoodputMbps[i]))
	}
	return "Extension: switching-protocol robustness to control-packet loss\n" + t.String()
}

// ExtOmniResult compares antenna choices.
type ExtOmniResult struct {
	Antennas []string
	TCPMbps  []float64
	Switches []int
}

// ExtOmni swaps the parabolic antennas for small-cell omnis (§4.2's
// hardware-agnostic claim) and re-runs the 15 mph TCP drive.
func ExtOmni(opt Options) (*ExtOmniResult, error) {
	res := &ExtOmniResult{}
	for _, omni := range []bool{false, true} {
		s := core.DriveScenario(core.ModeWGTT, 15, opt.Seed)
		s.OmniAPs = omni
		d, err := opt.drive(s, core.Load{TCP: true})
		if err != nil {
			return nil, err
		}
		name := "parabolic-21deg"
		if omni {
			name = "omni-5dBi"
		}
		res.Antennas = append(res.Antennas, name)
		res.TCPMbps = append(res.TCPMbps, d.Outcome(0).Mbps)
		res.Switches = append(res.Switches, len(d.Net.Ctl.History))
	}
	return res, nil
}

// Render implements Result.
func (r *ExtOmniResult) Render() string {
	t := &stats.Table{Header: []string{"antenna", "TCP Mb/s", "switches"}}
	for i := range r.Antennas {
		t.AddRow(r.Antennas[i], stats.F(r.TCPMbps[i]), fmt.Sprintf("%d", r.Switches[i]))
	}
	return "Extension (§4.2): AP antenna variants, 15 mph TCP\n" + t.String()
}

// ExtScaleResult compares the 8-AP testbed with a 16-AP corridor.
type ExtScaleResult struct {
	Labels       []string
	APs          []int
	TCPMbps      []float64
	SwitchesPerS []float64
	CSIPerSecond []float64
	CopiesPerPkt []float64
}

// ExtScale probes §7's "large area deployment" question: double the array
// to 16 APs over a 120 m corridor and drive it at 25 mph. The interesting
// outputs are whether per-drive throughput holds and what the controller
// pays (CSI ingest rate, downlink fan-out copies per packet).
func ExtScale(opt Options) (*ExtScaleResult, error) {
	res := &ExtScaleResult{}
	type layout struct {
		label string
		pos   []mobility.Point
	}
	layouts := []layout{
		{"testbed-8", mobility.DefaultAPPositions()},
		{"corridor-16", mobility.DenseArray(16, 5, 7.5)},
	}
	for _, l := range layouts {
		s := core.TransitScenario(core.ModeWGTT, l.pos, 25, opt.Seed)
		d, err := opt.drive(s, core.Load{TCP: true})
		if err != nil {
			return nil, err
		}
		ctl := d.Net.Ctl
		secs := s.Duration.Seconds()
		res.Labels = append(res.Labels, l.label)
		res.APs = append(res.APs, len(l.pos))
		res.TCPMbps = append(res.TCPMbps, d.Outcome(0).Mbps)
		res.SwitchesPerS = append(res.SwitchesPerS, float64(len(ctl.History))/secs)
		res.CSIPerSecond = append(res.CSIPerSecond, float64(ctl.Stats.CSIReports)/secs)
		copies := 0.0
		if ctl.Stats.DownlinkSent > 0 {
			copies = float64(ctl.Stats.DownlinkCopies) / float64(ctl.Stats.DownlinkSent)
		}
		res.CopiesPerPkt = append(res.CopiesPerPkt, copies)
	}
	return res, nil
}

// Render implements Result.
func (r *ExtScaleResult) Render() string {
	t := &stats.Table{Header: []string{"layout", "APs", "TCP Mb/s", "switches/s", "CSI/s", "copies/pkt"}}
	for i := range r.Labels {
		t.AddRow(r.Labels[i], fmt.Sprintf("%d", r.APs[i]), stats.F(r.TCPMbps[i]),
			stats.F(r.SwitchesPerS[i]), stats.F(r.CSIPerSecond[i]), stats.F(r.CopiesPerPkt[i]))
	}
	return "Extension (§7): deployment scale-out at 25 mph TCP\n" + t.String()
}
