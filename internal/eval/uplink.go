package eval

import (
	"fmt"
	"strings"

	"wgtt/internal/core"
	"wgtt/internal/mobility"
	"wgtt/internal/sim"
	"wgtt/internal/stats"
)

// Fig18Result holds per-client uplink loss timelines for both systems.
type Fig18Result struct {
	// Loss[system][client][s] is the uplink loss fraction of second s.
	LossWGTT [][]float64
	LossBase [][]float64
	// MeanWGTT/MeanBase are whole-run loss rates per client.
	MeanWGTT []float64
	MeanBase []float64
}

// Fig18UplinkLoss reproduces Fig. 18: three clients at 15 mph each send an
// uplink UDP stream; WGTT's multi-AP reception keeps the loss rate near
// zero while the single-AP baseline spikes.
func Fig18UplinkLoss(opt Options) (*Fig18Result, error) {
	const nClients = 3
	const rate = 4.0 // Mb/s per client
	res := &Fig18Result{}
	for _, mode := range []core.Mode{core.ModeWGTT, core.ModeBaseline} {
		s := core.MultiClientScenario(mode, mobility.Following, nClients, 15, opt.Seed)
		n, err := opt.build(s)
		if err != nil {
			return nil, err
		}
		var flows []*core.UpUDP
		for c := 0; c < nClients; c++ {
			f := n.AddUplinkUDP(c, rate, 1000)
			f.Receiver.Record = true
			f.Sender.Start()
			flows = append(flows, f)
		}
		if err := n.Run(); err != nil {
			return nil, err
		}
		for _, f := range flows {
			loss := perSecondLoss(f, rate, 1000, s.Duration)
			mean := inCoverageLoss(loss)
			if mode == core.ModeWGTT {
				res.LossWGTT = append(res.LossWGTT, loss)
				res.MeanWGTT = append(res.MeanWGTT, mean)
			} else {
				res.LossBase = append(res.LossBase, loss)
				res.MeanBase = append(res.MeanBase, mean)
			}
		}
	}
	return res, nil
}

// perSecondLoss bins an uplink flow's arrivals by second and returns each
// bin's loss fraction against the offered packet rate.
func perSecondLoss(u *core.UpUDP, rateMbps float64, pktBytes int, duration sim.Time) []float64 {
	loss := make([]float64, int(duration/sim.Second)+1)
	for _, a := range u.Receiver.Arrivals {
		if b := int(a.At / sim.Second); b < len(loss) {
			loss[b]++
		}
	}
	offered := rateMbps * 1e6 / 8 / float64(pktBytes)
	for b, recv := range loss {
		loss[b] = 1 - recv/offered
		if loss[b] < 0 {
			loss[b] = 0
		}
	}
	return loss
}

// inCoverageLoss averages per-second loss over the in-coverage middle of
// the drive (the paper plots the transition through the array; the entry
// and exit margins would otherwise dominate).
func inCoverageLoss(loss []float64) float64 {
	var mean float64
	cnt := 0
	for b := 2; b < len(loss)-3; b++ {
		mean += loss[b]
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return mean / float64(cnt)
}

// Render implements Result.
func (r *Fig18Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig 18: uplink UDP loss rate, 3 clients at 15 mph\n")
	for c := range r.MeanWGTT {
		fmt.Fprintf(&b, "  client %d: WGTT mean loss %.4f | Enh-802.11r mean loss %.4f\n",
			c+1, r.MeanWGTT[c], r.MeanBase[c])
	}
	for c := range r.LossWGTT {
		b.WriteString(seriesString(fmt.Sprintf("  wgtt c%d", c+1), r.LossWGTT[c], 2))
		b.WriteString(seriesString(fmt.Sprintf("  base c%d", c+1), r.LossBase[c], 2))
	}
	return b.String()
}

// Table3Result holds link-layer ACK collision rates.
type Table3Result struct {
	RatesMbps     []float64
	CollisionPct  []float64
	Opportunities []uint64
}

// Table3AckCollision reproduces Table 3: with every WGTT AP acknowledging
// the client's uplink frames, how often do those acknowledgements collide
// at the client? The paper measures ≤ 0.004% at 70–90 Mb/s.
func Table3AckCollision(opt Options) (*Table3Result, error) {
	rates := []float64{70, 80, 90}
	if opt.Quick {
		rates = []float64{70}
	}
	res := &Table3Result{}
	for _, rate := range rates {
		s := core.DriveScenario(core.ModeWGTT, 15, opt.Seed+uint64(rate))
		n, err := opt.build(s)
		if err != nil {
			return nil, err
		}
		// Uplink saturation at the given offered rate, like the paper's
		// iperf3 runs with RTS/CTS off.
		f := n.AddUplinkUDP(0, rate, 1400)
		f.Sender.Start()
		if err := n.Run(); err != nil {
			return nil, err
		}
		pct := 0.0
		if n.Medium.RespTotal > 0 {
			pct = 100 * float64(n.Medium.RespCollisions) / float64(n.Medium.RespTotal)
		}
		res.RatesMbps = append(res.RatesMbps, rate)
		res.CollisionPct = append(res.CollisionPct, pct)
		res.Opportunities = append(res.Opportunities, n.Medium.RespTotal)
	}
	return res, nil
}

// Render implements Result.
func (r *Table3Result) Render() string {
	t := &stats.Table{Header: []string{"rate(Mb/s)", "ack-collision(%)", "responses"}}
	for i := range r.RatesMbps {
		t.AddRow(fmt.Sprintf("%.0f", r.RatesMbps[i]),
			fmt.Sprintf("%.4f", r.CollisionPct[i]),
			fmt.Sprintf("%d", r.Opportunities[i]))
	}
	return "Table 3: link-layer ACK collision rate at the client\n" + t.String()
}
