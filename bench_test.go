// Package wgtt's root benchmark harness: one testing.B benchmark per table
// and figure in the paper's evaluation. Each benchmark runs the experiment
// (trimmed via eval.QuickOptions so a -bench sweep completes in minutes; run
// cmd/wgtt-experiments for the full axes) and reports the headline metric
// with b.ReportMetric, so `go test -bench=. -benchmem` regenerates every
// artifact and prints the numbers the paper's tables quote.
package wgtt_test

import (
	"testing"

	"wgtt/internal/core"
	"wgtt/internal/eval"
)

func opts() eval.Options { return eval.QuickOptions() }

// mean averages one reported series into a single headline metric.
func mean(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

func BenchmarkFig02BestAPChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.Fig02BestAPChurn(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.FlipsPerSecond, "bestAP-flips/s")
	}
}

func BenchmarkFig04RoamingFailure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.Fig04RoamingFailure(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.CapacityLossMbps[len(r.CapacityLossMbps)-1], "capacity-loss-Mb/s@20mph")
	}
}

func BenchmarkFig10Heatmap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.Fig10Heatmap(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.XsM)), "positions")
	}
}

func BenchmarkTable1SwitchTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.Table1SwitchTime(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mean(r.MeanMS), "switch-ms")
	}
}

func BenchmarkFig13ThroughputVsSpeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.Fig13ThroughputVsSpeed(opts())
		if err != nil {
			b.Fatal(err)
		}
		last := len(r.SpeedsMPH) - 1
		b.ReportMetric(r.TCPWGTT[last], "tcp-wgtt-Mb/s")
		b.ReportMetric(r.TCPBase[last], "tcp-base-Mb/s")
	}
}

func BenchmarkFig14TCPTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.Timeline(core.ModeWGTT, opts(), true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Switches), "switches")
	}
}

func BenchmarkFig15UDPTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.Timeline(core.ModeWGTT, opts(), false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mean(r.Mbps), "mean-Mb/s")
	}
}

func BenchmarkFig16BitrateCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.Fig16BitrateCDF(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].P90, "wgtt-tcp-p90-Mb/s")
	}
}

func BenchmarkTable2SwitchingAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.Table2SwitchingAccuracy(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].WGTT, "wgtt-accuracy-%")
		b.ReportMetric(r.Rows[0].Baseline, "base-accuracy-%")
	}
}

func BenchmarkFig17MultiClient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.Fig17MultiClient(opts())
		if err != nil {
			b.Fatal(err)
		}
		rows := r.Rows["UDP-WGTT"]
		b.ReportMetric(rows[len(rows)-1], "udp-wgtt-per-client-Mb/s")
	}
}

func BenchmarkFig18UplinkLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.Fig18UplinkLoss(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mean(r.MeanWGTT), "wgtt-loss")
		b.ReportMetric(mean(r.MeanBase), "base-loss")
	}
}

func BenchmarkFig20DrivingPatterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.Fig20DrivingPatterns(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mean(r.Rows["UDP-WGTT"]), "udp-wgtt-Mb/s")
	}
}

func BenchmarkFig21WindowSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.Fig21WindowSize(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.BestWindowMS, "best-window-ms")
	}
}

func BenchmarkTable3AckCollision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.Table3AckCollision(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.CollisionPct[0], "collision-%")
	}
}

func BenchmarkFig22Hysteresis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.Fig22Hysteresis(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Mbps[0], "tcp-Mb/s@40ms")
	}
}

func BenchmarkFig23APDensity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.Fig23APDensity(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mean(r.Rows["dense-WGTT"]), "dense-wgtt-Mb/s")
		b.ReportMetric(mean(r.Rows["sparse-WGTT"]), "sparse-wgtt-Mb/s")
	}
}

func BenchmarkTable4VideoRebuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.Table4VideoRebuffer(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mean(r.WGTT), "wgtt-rebuffer")
		b.ReportMetric(mean(r.Baseline), "base-rebuffer")
	}
}

func BenchmarkFig24ConferenceFPS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.Fig24ConferenceFPS(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].P85, "wgtt-p85-fps")
	}
}

func BenchmarkTable5PageLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.Table5PageLoad(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.WGTT[0], "wgtt-load-s")
	}
}

func BenchmarkAblationBAForwarding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.AblationBAForwarding(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.OnValue, "on-Mb/s")
		b.ReportMetric(r.OffValue, "off-Mb/s")
	}
}

func BenchmarkAblationUplinkDiversity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.AblationUplinkDiversity(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.OnValue, "on-loss")
		b.ReportMetric(r.OffValue, "off-loss")
	}
}

func BenchmarkAblationFanout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.AblationFanout(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.OnValue, "on-Mb/s")
		b.ReportMetric(r.OffValue, "off-Mb/s")
	}
}

func BenchmarkAblationSelectionMetric(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.AblationSelectionMetric(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.OnValue, "median-loss-Mb/s")
		b.ReportMetric(r.OffValue, "mean-loss-Mb/s")
	}
}

func BenchmarkExtSelector(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.ExtSelector(opts())
		if err != nil {
			b.Fatal(err)
		}
		// Headline deltas of DESIGN.md §15: how fast each policy leaves a
		// collapsed serving link, and the pile-up GlobalAssign's budget caps.
		b.ReportMetric(r.CollapseLagMS[0], "median-collapse-lag-ms")
		b.ReportMetric(r.CollapseLagMS[1], "predictive-collapse-lag-ms")
		b.ReportMetric(r.MeanAPLoad[0], "median-mean-AP-load")
		b.ReportMetric(r.MeanAPLoad[2], "global-assign-mean-AP-load")
	}
}
