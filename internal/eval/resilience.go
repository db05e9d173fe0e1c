package eval

import (
	"fmt"

	"wgtt/internal/chaos"
	"wgtt/internal/core"
	"wgtt/internal/mobility"
	"wgtt/internal/sim"
	"wgtt/internal/stats"
	"wgtt/internal/transport"
)

// ExtResilienceResult characterizes the failure model of DESIGN.md §11: how
// much delivered throughput and client-visible outage the system pays as AP
// crashes become more frequent.
type ExtResilienceResult struct {
	MTBFS          []float64 // AP-crash mean time between failures, seconds (0 = chaos off)
	APCrashes      []uint64
	APsMarkedDead  []uint64
	APsReadmitted  []uint64
	ForcedSwitches []uint64
	WorstOutageMS  []float64 // longest delivery gap straddling any crash
	UDPMbps        []float64
}

// ExtResilience sweeps the AP-crash MTBF over a 16-AP omni small-cell
// corridor at 15 mph and reports how the health monitor and forced-failover
// path (DESIGN.md §11) contain each crash. The omni variant gives the
// corridor overlapping coverage, so the measured outage reflects the
// recovery protocol rather than the coverage hole a directional picocell
// leaves behind when it dies. The MTBF=0 row is the fault-free control.
func ExtResilience(opt Options) (*ExtResilienceResult, error) {
	mtbfs := []sim.Time{0, 15 * sim.Second, 5 * sim.Second}
	if opt.Quick {
		mtbfs = []sim.Time{0, 5 * sim.Second}
	}
	res := &ExtResilienceResult{}
	pos := mobility.DenseArray(16, 5, 7.5)
	for _, mtbf := range mtbfs {
		s := core.TransitScenario(core.ModeWGTT, pos, 15, opt.Seed)
		s.OmniAPs = true
		if mtbf > 0 {
			// Only the AP-crash axis: no backhaul or CSI weather.
			s.Chaos = &chaos.Config{APCrashMTBF: mtbf, APDowntime: 2 * sim.Second}
		}
		n, err := opt.build(s)
		if err != nil {
			return nil, err
		}
		var crashAts []sim.Time
		if n.Chaos != nil {
			n.Chaos.OnFault = func(ev chaos.Event) {
				if ev.Kind == chaos.APCrash {
					crashAts = append(crashAts, ev.At)
				}
			}
		}
		d := n.Attach([]core.Load{{RateMbps: 20, Record: true}})
		n.Run()

		out := d.Outcome(0)
		res.MTBFS = append(res.MTBFS, mtbf.Seconds())
		res.UDPMbps = append(res.UDPMbps, out.Mbps)
		res.WorstOutageMS = append(res.WorstOutageMS,
			float64(worstCrashOutage(out.Arrivals, crashAts))/float64(sim.Millisecond))
		if n.Chaos != nil {
			res.APCrashes = append(res.APCrashes, n.Chaos.Stats.APCrashes)
		} else {
			res.APCrashes = append(res.APCrashes, 0)
		}
		st := n.Ctl.Stats
		res.APsMarkedDead = append(res.APsMarkedDead, st.APsMarkedDead)
		res.APsReadmitted = append(res.APsReadmitted, st.APsReadmitted)
		res.ForcedSwitches = append(res.ForcedSwitches, st.ForcedSwitches)
	}
	return res, nil
}

// worstCrashOutage returns the longest delivery gap that straddles any
// crash instant — the client-visible cost of that failure. Gaps away from
// every crash (e.g. entering/leaving coverage) are not chargeable to chaos
// and are ignored.
func worstCrashOutage(deliveries []transport.Arrival, crashAts []sim.Time) sim.Time {
	var worst sim.Time
	for _, crash := range crashAts {
		prev := crash
		// Walk deliveries around this crash; both slices are time-ordered.
		for _, a := range deliveries {
			if a.At <= crash {
				prev = a.At
				continue
			}
			if gap := a.At - prev; gap > worst {
				worst = gap
			}
			break
		}
	}
	return worst
}

// Render implements Result.
func (r *ExtResilienceResult) Render() string {
	t := &stats.Table{Header: []string{
		"ap-mtbf(s)", "crashes", "dead", "readmit", "forced", "worst-outage(ms)", "UDP Mb/s"}}
	for i := range r.MTBFS {
		mtbf := "off"
		if r.MTBFS[i] > 0 {
			mtbf = stats.F(r.MTBFS[i])
		}
		t.AddRow(mtbf, fmt.Sprintf("%d", r.APCrashes[i]),
			fmt.Sprintf("%d", r.APsMarkedDead[i]), fmt.Sprintf("%d", r.APsReadmitted[i]),
			fmt.Sprintf("%d", r.ForcedSwitches[i]), stats.F(r.WorstOutageMS[i]),
			stats.F(r.UDPMbps[i]))
	}
	return "Extension (§11): AP-crash resilience, 16-AP omni corridor, 15 mph UDP\n" + t.String()
}
