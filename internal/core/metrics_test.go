package core

import (
	"reflect"
	"strings"
	"testing"

	"wgtt/internal/chaos"
	"wgtt/internal/metrics"
	"wgtt/internal/sim"
)

// TestSwitchSpanMedianMatchesTable1 is the observability acceptance test:
// the switch-protocol spans recorded on a default drive must reproduce
// Table 1's ~17 ms median switch execution time. The tolerance band
// (12–22 ms) is the nominal 16.6 ms pipeline — 7 ms stop + 9 ms start
// processing + 3 backhaul one-way trips of 200 µs — widened by the ±4 ms
// per-stage processing jitter; DESIGN.md §10 documents the derivation.
func TestSwitchSpanMedianMatchesTable1(t *testing.T) {
	s := DriveScenario(ModeWGTT, 25, 42)
	n, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	r := n.EnableMetrics()
	flow := n.AddDownlinkUDP(0, 20, 1400)
	flow.Sender.Start()
	if err := n.Run(); err != nil {
		t.Error(err)
	}

	snap := r.Snapshot()
	sum := snap.SwitchSummary()
	if sum.Total < 5 {
		t.Fatalf("only %d switch spans on a full drive-through; want at least 5", sum.Total)
	}
	if sum.Completed < sum.Total-1 {
		t.Errorf("%d of %d spans completed; at most the final switch may be cut off by scenario end",
			sum.Completed, sum.Total)
	}
	med := sim.Time(sum.MedianNS)
	if med < 12*sim.Millisecond || med > 22*sim.Millisecond {
		t.Errorf("median switch execution time %.1f ms outside the 12-22 ms Table 1 band", med.Seconds()*1e3)
	}

	// Consistency: the span ledger, the counters, and the controller's own
	// Stats/History must agree with each other.
	counter := func(name string) uint64 {
		for _, c := range snap.Counters {
			if c.Component == "controller" && c.Name == name {
				return c.Value
			}
		}
		return 0
	}
	if got := counter("switches_done"); got != n.Ctl.Stats.SwitchesDone {
		t.Errorf("switches_done counter = %d, Stats = %d", got, n.Ctl.Stats.SwitchesDone)
	}
	if uint64(sum.Completed) != n.Ctl.Stats.SwitchesDone {
		t.Errorf("completed spans = %d, Stats.SwitchesDone = %d", sum.Completed, n.Ctl.Stats.SwitchesDone)
	}
	if len(n.Ctl.History) != int(n.Ctl.Stats.SwitchesDone) {
		t.Errorf("history has %d records, Stats.SwitchesDone = %d", len(n.Ctl.History), n.Ctl.Stats.SwitchesDone)
	}
	if got := counter("csi_reports"); got != n.Ctl.Stats.CSIReports {
		t.Errorf("csi_reports counter = %d, Stats = %d", got, n.Ctl.Stats.CSIReports)
	}
	if got := counter("stop_retransmits"); got != n.Ctl.Stats.StopRetransmits {
		t.Errorf("stop_retransmits counter = %d, Stats = %d", got, n.Ctl.Stats.StopRetransmits)
	}
	if snap.DurationNS != int64(s.Duration) {
		t.Errorf("snapshot duration %d ns, scenario %d ns", snap.DurationNS, int64(s.Duration))
	}
}

// TestSharedRegistryKeepsEverySpan builds two networks one after another
// into one registry, as an experiment does. Both number their switches
// from 1, so every switch the second run starts must still open a span of
// its own instead of landing on the first run's span with the same id.
func TestSharedRegistryKeepsEverySpan(t *testing.T) {
	r := metrics.NewRegistry()
	var started, done uint64
	for _, seed := range []uint64{42, 43} {
		n, err := Build(DriveScenario(ModeWGTT, 25, seed))
		if err != nil {
			t.Fatal(err)
		}
		n.EnableMetricsInto(r)
		flow := n.AddDownlinkUDP(0, 20, 1400)
		flow.Sender.Start()
		if err := n.Run(); err != nil {
			t.Error(err)
		}
		started += n.Ctl.Stats.SwitchesStarted
		done += n.Ctl.Stats.SwitchesDone
	}
	snap := r.Snapshot()
	sum := snap.SwitchSummary()
	if uint64(sum.Total) != started || uint64(sum.Completed) != done {
		t.Errorf("%d spans begun, %d completed; the two controllers started %d switches and finished %d",
			sum.Total, sum.Completed, started, done)
	}
}

// TestMetricsOffIsInert makes sure a run without EnableMetrics carries no
// registry and no recording side effects — the disabled state of the
// DESIGN.md §10 overhead guarantee.
func TestMetricsOffIsInert(t *testing.T) {
	s := DriveScenario(ModeWGTT, 25, 42)
	n, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	flow := n.AddDownlinkUDP(0, 20, 1400)
	flow.Sender.Start()
	if err := n.Run(); err != nil {
		t.Error(err)
	}
	if n.Metrics != nil {
		t.Fatal("network without EnableMetrics has a registry")
	}
	snap := n.Metrics.Snapshot() // nil-safe: must return an empty snapshot
	if len(snap.Counters) != 0 || len(snap.Spans) != 0 {
		t.Errorf("nil registry snapshot not empty: %d counters, %d spans", len(snap.Counters), len(snap.Spans))
	}
}

// TestMetricsRunsAreDeterministic: enabling metrics must not perturb the
// simulation, and two identical runs must produce identical snapshots.
func TestMetricsRunsAreDeterministic(t *testing.T) {
	run := func(enable bool) (uint64, string) {
		s := DriveScenario(ModeWGTT, 25, 7)
		n, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		var rendered string
		if enable {
			n.EnableMetrics()
		}
		flow := n.AddDownlinkUDP(0, 20, 1400)
		flow.Sender.Start()
		if err := n.Run(); err != nil {
			t.Error(err)
		}
		if enable {
			snap := n.Metrics.Snapshot()
			var b strings.Builder
			if err := snap.WriteJSON(&b); err != nil {
				t.Fatal(err)
			}
			rendered = b.String()
		}
		return flow.Receiver.Bytes, rendered
	}
	offBytes, _ := run(false)
	onBytes1, snap1 := run(true)
	onBytes2, snap2 := run(true)
	if offBytes != onBytes1 || onBytes1 != onBytes2 {
		t.Errorf("delivered bytes differ across runs: off %d, on %d / %d", offBytes, onBytes1, onBytes2)
	}
	if snap1 != snap2 {
		t.Error("identical runs produced different metric snapshots")
	}
}

// TestEveryCounterIsSeen holds DESIGN.md §10's rule that every counter has a
// reader. Part-way through a two-domain chaos drive with metrics on, each
// uint64 field of the AP, client, controller, federation and chaos Stats,
// bumped by one, must move a -metrics counter or break a conservation law.
// Only readElsewhere is exempt, each entry naming the reader that reads the
// field by name; an exempt field the rule would see is a stale entry.
func TestEveryCounterIsSeen(t *testing.T) {
	readElsewhere := map[string]string{
		"client.Stats.DownlinkMPDUs": "bench/workloads.go's delivered-MPDU digest",
	}
	s := DriveScenario(ModeWGTT, 25, 33)
	s.Domains = 2
	cfg := chaos.DefaultConfig()
	s.Chaos = &cfg
	n, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	reg := n.EnableMetrics()
	n.Attach(Loads(1, Load{RateMbps: 50}))
	n.RunUntil(3 * sim.Second)
	if err := n.conserved(); err != nil {
		t.Fatal(err)
	}
	base := reg.Snapshot().Counters
	dom := n.Fed.Domains[0]
	for _, st := range []any{&n.APs[0].Stats, &n.Clients[0].Stats, &dom.Controller().Stats, &dom.Stats, &n.Chaos.Stats} {
		v := reflect.ValueOf(st).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if f.Kind() != reflect.Uint64 {
				continue
			}
			name := v.Type().String() + "." + v.Type().Field(i).Name
			f.SetUint(f.Uint() + 1)
			seen := !reflect.DeepEqual(reg.Snapshot().Counters, base) || n.conserved() != nil
			f.SetUint(f.Uint() - 1)
			reader, exempt := readElsewhere[name]
			switch {
			case !seen && !exempt:
				t.Errorf("%s: no -metrics counter and no conservation law reads it", name)
			case seen && exempt:
				t.Errorf("%s: exempt for %s, but a counter or a law reads it", name, reader)
			}
		}
	}
}
