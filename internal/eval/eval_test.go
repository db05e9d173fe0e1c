package eval

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"wgtt/internal/core"
	"wgtt/internal/metrics"
)

// The eval tests exercise each experiment in Quick mode and sanity-check
// the *shape* each paper artifact claims (who wins, where minima fall); the
// full axes run via cmd/wgtt-experiments.

// QuickOptions runs the trimmed variant.
func QuickOptions() Options { return Options{Seed: 2017, Quick: true} }

func TestFig02Churn(t *testing.T) {
	r, err := Fig02BestAPChurn(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The defining property of the vehicular picocell regime: the best AP
	// changes many times per second.
	if r.FlipsPerSecond < 5 {
		t.Errorf("best-AP flips/s = %v; not a picocell regime", r.FlipsPerSecond)
	}
	if len(r.ESNR) != 3 || len(r.ESNR[0]) != len(r.BestAP) {
		t.Error("trace shapes inconsistent")
	}
	if !strings.Contains(r.Render(), "flips/s") {
		t.Error("render missing headline")
	}
}

func TestTable1SwitchTimes(t *testing.T) {
	r, err := Table1SwitchTime(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, mean := range r.MeanMS {
		// Paper: 17–21 ms mean, std 3–5 ms, flat across loads.
		if mean < 8 || mean > 30 {
			t.Errorf("rate %.0f: mean switch time %.1f ms out of band", r.RatesMbps[i], mean)
		}
		if r.Samples[i] < 10 {
			t.Errorf("rate %.0f: only %d switches sampled", r.RatesMbps[i], r.Samples[i])
		}
	}
}

func TestTable2Accuracy(t *testing.T) {
	r, err := Table2SwitchingAccuracy(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		// Paper: WGTT > 90%, baseline ~19–20%. Shape: WGTT far above.
		if row.WGTT < 50 {
			t.Errorf("%s: WGTT accuracy %.1f%%", row.Proto, row.WGTT)
		}
		if row.WGTT < row.Baseline+20 {
			t.Errorf("%s: WGTT %.1f%% not clearly above baseline %.1f%%",
				row.Proto, row.WGTT, row.Baseline)
		}
	}
}

func TestFig21WindowShape(t *testing.T) {
	r, err := Fig21WindowSize(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Quick mode sweeps {2, 10, 100} ms: the 100 ms window must lose more
	// capacity than the best small window (stale medians at driving speed).
	last := r.CapacityLossMbs[len(r.CapacityLossMbs)-1]
	best := r.CapacityLossMbs[0]
	for _, v := range r.CapacityLossMbs {
		if v < best {
			best = v
		}
	}
	if last <= best {
		t.Errorf("large window (%.2f) does not lose more than best (%.2f)", last, best)
	}
}

func TestTable3CollisionRare(t *testing.T) {
	r, err := Table3AckCollision(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Paper measures ≤ 0.004% on hardware; the simulated responder-jitter
	// model lands higher but still firmly in "rare, no throughput impact"
	// territory (see EXPERIMENTS.md for the discussion).
	if r.CollisionPct[0] > 0.5 {
		t.Errorf("ack collision rate %.4f%%", r.CollisionPct[0])
	}
	if r.Opportunities[0] < 500 {
		t.Errorf("only %d response opportunities sampled", r.Opportunities[0])
	}
}

func TestTable5PageLoadShape(t *testing.T) {
	r, err := Table5PageLoad(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.SpeedsMPH {
		// WGTT always completes, in a handful of seconds.
		if r.WGTT[i] > 30 {
			t.Errorf("%v mph: WGTT load time %v s", r.SpeedsMPH[i], r.WGTT[i])
		}
		// The baseline is never meaningfully faster.
		if r.Baseline[i] < r.WGTT[i]-0.5 {
			t.Errorf("%v mph: baseline (%v) beat WGTT (%v)", r.SpeedsMPH[i], r.Baseline[i], r.WGTT[i])
		}
	}
}

func TestAblationSelectionMetricRuns(t *testing.T) {
	r, err := AblationSelectionMetric(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.OnValue < 0 || r.OffValue < 0 {
		t.Error("negative capacity loss")
	}
	if !strings.Contains(r.Render(), "Ablation") {
		t.Error("render malformed")
	}
}

func TestTimelineShapes(t *testing.T) {
	r, err := Timeline(core.ModeWGTT, QuickOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Mbps) == 0 || len(r.APSeq) == 0 {
		t.Fatal("empty timeline")
	}
	if r.Switches < 5 {
		t.Errorf("WGTT switched only %d times at 15 mph", r.Switches)
	}
	// The AP sequence should progress from low indices to high.
	if first, last := r.APSeq[3], r.APSeq[len(r.APSeq)-3]; first > 3 || last < 4 {
		t.Errorf("AP sequence does not sweep the array: first=%d last=%d", first, last)
	}
}

// A 15 mph TCP drive loses segments at every cell edge: the timeline must
// report the sender's RTOs, not the zero it was initialised with.
func TestTimelineReportsTCPTimeouts(t *testing.T) {
	r, err := Timeline(core.ModeWGTT, QuickOptions(), true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Timeouts == 0 {
		t.Error("TCP timeline reports 0 timeouts")
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %q", e.ID)
		}
		ids[e.ID] = true
	}
	// Every table and figure from the paper's evaluation is present.
	for _, want := range []string{
		"fig2", "fig4", "fig10", "table1", "fig13", "fig14", "fig15", "fig16",
		"table2", "fig17", "fig18", "fig20", "fig21", "table3", "fig22",
		"fig23", "table4", "fig24", "table5",
	} {
		if !ids[want] {
			t.Errorf("experiment %q missing from registry", want)
		}
	}
}

func TestHelpers(t *testing.T) {
	if fmtMode(core.ModeWGTT) != "WGTT" || fmtMode(core.ModeBaseline) != "Enh-802.11r" {
		t.Error("mode names wrong")
	}
	if achievableRate(40) < 60 {
		t.Error("high ESNR rate too low")
	}
	if achievableRate(-20) > 1 {
		t.Error("hopeless ESNR yields rate")
	}
	if median([]float64{3, 1, 2}) != 2 || median(nil) != 0 {
		t.Error("median wrong")
	}
	if meanOf([]float64{1, 3}) != 2 || meanOf(nil) != 0 {
		t.Error("meanOf wrong")
	}
}

func TestExtControlLossRobustness(t *testing.T) {
	r, err := ExtControlLoss(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	last := len(r.LossRate) - 1
	// With 50% control loss, the timeout path must be exercised …
	if r.StopRetransmits[last] == 0 {
		t.Error("no stop retransmissions under 50% control loss")
	}
	// … switches must still complete …
	if r.SwitchesDone[last] < r.SwitchesDone[0]/3 {
		t.Errorf("switching collapsed: %d vs %d without loss",
			r.SwitchesDone[last], r.SwitchesDone[0])
	}
	// … and the system must degrade gracefully, not collapse.
	if r.GoodputMbps[last] < r.GoodputMbps[0]/3 {
		t.Errorf("goodput collapsed: %.2f vs %.2f", r.GoodputMbps[last], r.GoodputMbps[0])
	}
	// Mean switch time grows with loss (each drop costs a 30 ms timeout).
	if r.MeanSwitchMS[last] <= r.MeanSwitchMS[0] {
		t.Errorf("switch time did not grow under loss: %.1f vs %.1f",
			r.MeanSwitchMS[last], r.MeanSwitchMS[0])
	}
}

func TestExtMultiChannelTradeoff(t *testing.T) {
	r, err := ExtMultiChannel(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Channels) != 2 {
		t.Fatal("wrong sweep")
	}
	// §7's predicted trade-off: multi-channel loses the uplink-diversity
	// advantage (loss should not improve), and both configurations must
	// still deliver meaningful downlink throughput.
	if r.UplinkLoss[1] < r.UplinkLoss[0]*0.8 {
		t.Errorf("multi-channel improved uplink loss (%.4f vs %.4f)?",
			r.UplinkLoss[1], r.UplinkLoss[0])
	}
	for i, m := range r.PerClientMbps {
		if m < 2 {
			t.Errorf("channels=%d: per-client throughput %.2f Mb/s", r.Channels[i], m)
		}
	}
}

func TestExtOmniStillWorks(t *testing.T) {
	r, err := ExtOmni(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The hardware-agnostic claim: the system keeps functioning with omni
	// small cells (different absolute numbers are expected).
	if r.TCPMbps[1] < 1 {
		t.Errorf("omni variant broke the system: %.2f Mb/s", r.TCPMbps[1])
	}
	if r.Switches[1] == 0 {
		t.Error("omni variant never switched")
	}
}

func TestExtScaleHolds(t *testing.T) {
	r, err := ExtScale(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Labels) != 2 || r.APs[1] != 16 {
		t.Fatal("layouts wrong")
	}
	// Scale-out must not collapse throughput: the 16-AP corridor should
	// sustain at least ~2/3 of the 8-AP testbed's per-drive goodput.
	if r.TCPMbps[1] < r.TCPMbps[0]*0.66 {
		t.Errorf("16-AP corridor degraded: %.2f vs %.2f Mb/s", r.TCPMbps[1], r.TCPMbps[0])
	}
	// The fan-out stays bounded (copies go to nearby APs, not all 16).
	if r.CopiesPerPkt[1] > 10 {
		t.Errorf("fan-out exploded: %.1f copies/packet", r.CopiesPerPkt[1])
	}
}

func TestExtScaleRender(t *testing.T) {
	r := &ExtScaleResult{Labels: []string{"a"}, APs: []int{8}, TCPMbps: []float64{1},
		SwitchesPerS: []float64{2}, CSIPerSecond: []float64{3}, CopiesPerPkt: []float64{4}}
	if !strings.Contains(r.Render(), "scale-out") {
		t.Error("render malformed")
	}
}

func TestExtResilienceDegradesGracefully(t *testing.T) {
	r, err := ExtResilience(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.MTBFS) != 2 || r.MTBFS[0] != 0 {
		t.Fatalf("quick sweep must be {off, stressed}: %+v", r.MTBFS)
	}
	if r.APCrashes[0] != 0 || r.WorstOutageMS[0] != 0 {
		t.Errorf("fault-free control saw chaos: crashes=%d outage=%.1fms",
			r.APCrashes[0], r.WorstOutageMS[0])
	}
	if r.APCrashes[1] == 0 || r.APsMarkedDead[1] == 0 {
		t.Fatalf("stressed row exercised nothing: %+v", r)
	}
	// Graceful degradation: crashes with overlapping coverage must not
	// collapse delivered throughput.
	if r.UDPMbps[1] < r.UDPMbps[0]*0.75 {
		t.Errorf("throughput collapsed under chaos: %.2f vs %.2f Mb/s",
			r.UDPMbps[1], r.UDPMbps[0])
	}
	// Any crash-straddling outage stays within the same order as the
	// detection timeout (generous 5x headroom: a crash can land mid-switch).
	if r.WorstOutageMS[1] > 500 {
		t.Errorf("worst outage %.1f ms is unbounded", r.WorstOutageMS[1])
	}
	if !strings.Contains(r.Render(), "resilience") {
		t.Error("render malformed")
	}
}

func TestExtFederationCrossesDomains(t *testing.T) {
	r, err := ExtFederation(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Domains) != 2 || r.Domains[0] != 1 {
		t.Fatalf("quick sweep must be {1, 2}: %+v", r.Domains)
	}
	if r.Handoffs[0] != 0 || r.Offers[0] != 0 {
		t.Errorf("single-controller control saw federation activity: handoffs=%d offers=%d",
			r.Handoffs[0], r.Offers[0])
	}
	if r.Handoffs[1] == 0 {
		t.Fatalf("2-domain drive completed no inter-controller handoffs: %+v", r)
	}
	if r.OfferCommitMS[1] <= 0 || r.CrossSwitchMS[1] <= 0 {
		t.Errorf("handoff timings missing: xfer=%.2fms switch=%.2fms",
			r.OfferCommitMS[1], r.CrossSwitchMS[1])
	}
	// The no-re-association-gap claim: the worst delivery gap straddling a
	// handoff stays in the switching regime, not the 802.11 roaming regime.
	if r.WorstHandoffMS[1] > 500 {
		t.Errorf("worst handoff gap %.1f ms is unbounded", r.WorstHandoffMS[1])
	}
	// Federation must not tax the corridor's goodput.
	if r.UDPMbps[1] < r.UDPMbps[0]*0.75 {
		t.Errorf("throughput collapsed under federation: %.2f vs %.2f Mb/s",
			r.UDPMbps[1], r.UDPMbps[0])
	}
	if !strings.Contains(r.Render(), "federation") {
		t.Error("render malformed")
	}
}

func TestRunAllParallelMatchesRegistryOrder(t *testing.T) {
	// Two cheap artifacts, two workers: outputs must come back in registry
	// order (fig2 precedes table3) with identical text to a serial run.
	ids := []string{"table3", "fig2"} // deliberately not registry order
	par, err := RunAll(QuickOptions(), 2, ids)
	if err != nil {
		t.Fatal(err)
	}
	ser, err := RunAll(QuickOptions(), 1, ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != 2 || par[0].ID != "fig2" || par[1].ID != "table3" {
		t.Fatalf("registry order not preserved: %q, %q", par[0].ID, par[1].ID)
	}
	for i := range par {
		if par[i].Err != nil {
			t.Fatalf("%s: %v", par[i].ID, par[i].Err)
		}
		if par[i].Text == "" || par[i].Text != ser[i].Text {
			t.Errorf("%s: parallel text differs from serial", par[i].ID)
		}
	}
}

func TestRunAllRejectsUnknownID(t *testing.T) {
	if _, err := RunAll(QuickOptions(), 2, []string{"fig2", "nope"}); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

func TestExtMetroConnectedRecovers(t *testing.T) {
	r, err := ExtMetro(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Modes) != 2 || r.Modes[0] != "connected" || r.Modes[1] != "isolated" {
		t.Fatalf("modes = %v", r.Modes)
	}
	if r.Migrations[0] == 0 {
		t.Fatal("connected metro performed no migrations")
	}
	if r.Migrations[1] != 0 {
		t.Fatalf("isolated metro migrated %d clients", r.Migrations[1])
	}
	// The headline: stitching the tiles back together recovers the loss the
	// seams inflict. Clients stranded outside their birth tile's coverage
	// are what the isolated tail-loss column measures.
	if r.LossPct[0] >= r.LossPct[1] {
		t.Errorf("connected loss %.2f%% not below isolated %.2f%%", r.LossPct[0], r.LossPct[1])
	}
	if r.TailLossPct[0] >= r.TailLossPct[1] {
		t.Errorf("connected tail loss %.2f%% not below isolated %.2f%%",
			r.TailLossPct[0], r.TailLossPct[1])
	}
	out := r.Render()
	if !strings.Contains(out, "metro fleet") || !strings.Contains(out, "isolated") {
		t.Errorf("render malformed:\n%s", out)
	}
}

// TestRunAllMetricsRepeat holds DESIGN.md §10's promise of an identical
// snapshot across runs: fig23 builds its networks in a fixed order, so its
// switch spans are listed in the same order every time. An order left to a
// two-entry map changes on about one run in eight, hence 16 runs.
func TestRunAllMetricsRepeat(t *testing.T) {
	run := func(t *testing.T) *metrics.Snapshot {
		outs, err := RunAll(Options{Quick: true, CollectMetrics: true}, 2, []string{"fig23"})
		if err != nil {
			t.Fatal(err)
		}
		if outs[0].Err != nil {
			t.Fatal(outs[0].Err)
		}
		return outs[0].Metrics
	}
	first := run(t)
	for i := 1; i < 16; i++ {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			t.Parallel()
			if !reflect.DeepEqual(run(t), first) {
				t.Error("the metrics snapshot differs from the first run's")
			}
		})
	}
}
