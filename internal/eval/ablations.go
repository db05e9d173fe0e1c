package eval

import (
	"fmt"

	"wgtt/internal/controller"
	"wgtt/internal/core"
	"wgtt/internal/sim"
	"wgtt/internal/stats"
)

// AblationResult compares a design choice on/off.
type AblationResult struct {
	Title    string
	Metric   string
	OnValue  float64
	OffValue float64
	Extra    string
}

// Render implements Result.
func (r *AblationResult) Render() string {
	return fmt.Sprintf("Ablation — %s\n  enabled : %s = %s\n  disabled: %s = %s\n  %s\n",
		r.Title, r.Metric, stats.F(r.OnValue), r.Metric, stats.F(r.OffValue), r.Extra)
}

// AblationBAForwarding quantifies §3.2.1: TCP goodput at 15 mph with Block
// ACK forwarding on vs off, plus the retransmission airtime it saves.
func AblationBAForwarding(opt Options) (*AblationResult, error) {
	run := func(enabled bool) (float64, float64, error) {
		s := core.DriveScenario(core.ModeWGTT, 15, opt.Seed)
		s.NoBAForwarding = !enabled
		d, err := opt.drive(s, core.Load{TCP: true})
		if err != nil {
			return 0, 0, err
		}
		var sent, delivered uint64
		for _, a := range d.Net.APs {
			sent += a.Station().MPDUsSent
			delivered += a.Stats.MPDUsDelivered
		}
		rtxRatio := 0.0
		if delivered > 0 {
			rtxRatio = float64(sent-delivered) / float64(delivered)
		}
		return d.Outcome(0).Mbps, rtxRatio, nil
	}
	onTp, onRtx, err := run(true)
	if err != nil {
		return nil, err
	}
	offTp, offRtx, err := run(false)
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Title:    "Block ACK forwarding (§3.2.1)",
		Metric:   "TCP goodput (Mb/s)",
		OnValue:  onTp,
		OffValue: offTp,
		Extra:    fmt.Sprintf("link-layer retransmission overhead: %.3f (on) vs %.3f (off)", onRtx, offRtx),
	}, nil
}

// AblationUplinkDiversity quantifies §3.2.2–3.2.3: uplink loss with all APs
// forwarding overheard packets vs only the serving AP.
func AblationUplinkDiversity(opt Options) (*AblationResult, error) {
	run := func(enabled bool) (float64, error) {
		s := core.DriveScenario(core.ModeWGTT, 15, opt.Seed)
		s.NoUplinkDiversity = !enabled
		n, err := opt.build(s)
		if err != nil {
			return 0, err
		}
		f := n.AddUplinkUDP(0, 5, 1000)
		f.Receiver.Record = true
		f.Sender.Start()
		n.Run()
		return inCoverageLoss(perSecondLoss(f, 5, 1000, s.Duration)), nil
	}
	onLoss, err := run(true)
	if err != nil {
		return nil, err
	}
	offLoss, err := run(false)
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Title:    "Uplink multi-AP reception (§3.2.2)",
		Metric:   "uplink loss rate",
		OnValue:  onLoss,
		OffValue: offLoss,
		Extra:    "lower is better; diversity reception is Fig. 18's mechanism",
	}, nil
}

// AblationFanout quantifies §3.1.2's cyclic-queue fan-out: with a vanishing
// fan-out window, only the serving AP buffers downlink packets, so every
// switch loses the handover backlog (what start(c, k) otherwise saves).
func AblationFanout(opt Options) (*AblationResult, error) {
	run := func(fanout sim.Time) (float64, error) {
		s := core.DriveScenario(core.ModeWGTT, 15, opt.Seed)
		cfg := controller.DefaultConfig()
		cfg.FanoutWindow = fanout
		s.Controller = &cfg
		// TCP, not UDP: the cost of a stranded backlog is a stalled flow,
		// which congestion control turns into lasting throughput loss.
		d, err := opt.drive(s, core.Load{TCP: true})
		if err != nil {
			return 0, err
		}
		return d.Outcome(0).Mbps, nil
	}
	onTp, err := run(100 * sim.Millisecond)
	if err != nil {
		return nil, err
	}
	offTp, err := run(sim.Microsecond)
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Title:    "Cyclic-queue fan-out (§3.1.2)",
		Metric:   "TCP goodput (Mb/s)",
		OnValue:  onTp,
		OffValue: offTp,
		Extra:    "disabled = copies reach only the serving AP; switches strand the backlog",
	}, nil
}

// AblationSelectionMetric compares the paper's windowed *median* against
// mean and latest-sample selection, using the Fig. 21 trace emulation.
func AblationSelectionMetric(opt Options) (*AblationResult, error) {
	tr, err := collectESNRTrace(opt.Seed)
	if err != nil {
		return nil, err
	}
	w := 10 * sim.Millisecond
	medianLoss := emulateSelection(tr, w)
	meanLoss := emulateSelectionWith(tr, w, meanOf)
	latestLoss := emulateSelectionWith(tr, sim.Millisecond, func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return xs[len(xs)-1]
	})
	return &AblationResult{
		Title:    "AP-selection statistic (§3.1.1)",
		Metric:   "capacity loss (Mb/s), W=10ms median",
		OnValue:  medianLoss,
		OffValue: meanLoss,
		Extra:    fmt.Sprintf("latest-sample selection loses %.2f Mb/s", latestLoss),
	}, nil
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}
