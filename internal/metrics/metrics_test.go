package metrics

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	var reports uint64
	r.CounterAt("controller", "csi_reports", &reports)
	reports += 5
	if got := r.Snapshot().Counters; len(got) != 1 || got[0].Value != 5 {
		t.Fatalf("counters = %+v, want csi_reports 5", got)
	}

	g := r.Gauge("dedup", "size")
	g.Set(3)
	g.Set(7)
	if got := g.v; got != 7 {
		t.Fatalf("gauge = %v, want 7 (last value)", got)
	}

	h := r.Histogram("controller", "window_occupancy", []float64{2, 4, 8})
	for _, v := range []float64{1, 3, 3, 5, 9, 100} {
		h.Observe(v)
	}
	if h.count != 6 {
		t.Fatalf("hist count = %d, want 6", h.count)
	}
	snap := r.Snapshot()
	hs := snap.Histograms[0]
	wantBuckets := []uint64{1, 2, 1, 2} // ≤2, ≤4, ≤8, overflow
	if !reflect.DeepEqual(hs.Buckets, wantBuckets) {
		t.Fatalf("buckets = %v, want %v", hs.Buckets, wantBuckets)
	}
	if hs.Min != 1 || hs.Max != 100 {
		t.Fatalf("min/max = %v/%v, want 1/100", hs.Min, hs.Max)
	}
	if q := hs.Quantile(0.5); q < 1 || q > 5 {
		t.Fatalf("p50 = %v, want within the low buckets", q)
	}
	if q := hs.Quantile(1); q != 100 {
		t.Fatalf("p100 = %v, want 100 (clamped to max)", q)
	}
}

// A CounterAt view stores nothing: the component's own uint64 is read when
// the snapshot is taken, views under one (component, name) sum (federation
// domains), EndRun folds them into stored values (sequentially built
// networks), and a nil registry ignores them.
func TestCounterAtReadsTheOwnersField(t *testing.T) {
	var a, b struct{ Switches uint64 }
	r := NewRegistry()
	r.CounterAt("controller", "switches_done", &a.Switches)
	r.CounterAt("controller", "switches_done", &b.Switches)
	turns := uint64(9)
	r.CounterAt("urban", "turns", &turns)
	a.Switches, b.Switches = 3, 4
	want := []CounterSnap{{"controller", "switches_done", 7}, {"urban", "turns", 9}}
	if got := r.Snapshot().Counters; !reflect.DeepEqual(got, want) {
		t.Fatalf("counters = %+v, want %+v", got, want)
	}
	a.Switches++
	if got := r.Snapshot().Counters[0].Value; got != 8 {
		t.Fatalf("second snapshot = %d, want 8 (the view is live)", got)
	}
	// EndRun keeps the value and lets go of the owner; the next network's
	// view of the same name adds to it.
	r.EndRun(1e9)
	a.Switches = 100
	var c struct{ Switches uint64 }
	r.CounterAt("controller", "switches_done", &c.Switches)
	c.Switches = 2
	if got := r.Snapshot().Counters[0].Value; got != 10 {
		t.Fatalf("after EndRun = %d, want 8 folded + 2 viewed", got)
	}
	(*Registry)(nil).CounterAt("controller", "switches_done", &a.Switches)
}

// Disabled metrics are a nil registry: every handle is nil and every
// operation a no-op — this is the contract instrumented components rely on.
func TestNilRegistryAndHandlesAreInert(t *testing.T) {
	var r *Registry
	g := r.Gauge("x", "y")
	h := r.Histogram("x", "y", []float64{1})
	sp := r.SwitchSpans()
	if g != nil || h != nil || sp != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	g.Set(1)
	h.Observe(1)
	sp.Begin(1, 0, "c", 0, 1, "median-argmax", 0, 0)
	sp.MarkStopHandled(1, 1)
	sp.MarkStartHandled(1, 2)
	sp.AddRetransmit(1)
	sp.ObserveDrain(1, 3, 4)
	sp.End(1, 5, false)
	r.EndRun(100)
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms)+len(s.Spans) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
}

func TestSwitchSpanLifecycle(t *testing.T) {
	r := NewRegistry()
	tr := r.SwitchSpans()
	if tr != r.SwitchSpans() {
		t.Fatal("SwitchSpans must be a single shared tracker")
	}

	tr.Begin(7, 1000, "aa:bb", 2, 3, "median-argmax", 10.5, 14.0)
	tr.Begin(7, 9999, "aa:bb", 2, 3, "median-argmax", 0, 0) // duplicate: ignored
	tr.MarkStopHandled(7, 8000)
	tr.MarkStopHandled(7, 8500) // retransmitted stop: first mark wins
	tr.AddRetransmit(7)
	tr.MarkStartHandled(7, 17000)
	tr.End(7, 17400, false)
	tr.ObserveDrain(7, 12, 6000) // drain outlives the ack
	tr.MarkStopHandled(99, 1)    // unknown id: dropped

	tr.Begin(8, 50000, "aa:bb", 3, 4, "median-argmax", 9, 12) // never acked

	s := r.Snapshot()
	if len(s.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(s.Spans))
	}
	sp := s.Spans[0]
	if sp.StartNS != 1000 || sp.StopHandledNS != 8000 || sp.StartHandledNS != 17000 || sp.EndNS != 17400 {
		t.Fatalf("span timeline wrong: %+v", sp)
	}
	if !sp.Completed || sp.DurationNS() != 16400 {
		t.Fatalf("duration = %d completed=%v, want 16400 true", sp.DurationNS(), sp.Completed)
	}
	if sp.Retransmits != 1 || sp.DrainMPDUs != 12 || sp.DrainNS != 6000 {
		t.Fatalf("retransmit/drain wrong: %+v", sp)
	}
	if s.Spans[1].Completed || s.Spans[1].DurationNS() != 0 {
		t.Fatalf("incomplete span must have zero duration: %+v", s.Spans[1])
	}

	sum := s.SwitchSummary()
	if sum.Total != 2 || sum.Completed != 1 || sum.Retransmits != 1 || sum.Drained != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.MedianNS != 16400 || sum.StopSegNS != 7000 || sum.StartSegNS != 9000 || sum.AckSegNS != 400 {
		t.Fatalf("summary segments = %+v", sum)
	}
}

func TestSnapshotDeterministicOrderAndJSONRoundTrip(t *testing.T) {
	build := func(order []string) Snapshot {
		r := NewRegistry()
		for _, name := range order {
			n := uint64(3)
			r.CounterAt(name, "n", &n)
			r.Gauge(name, "g").Set(1)
			r.Histogram(name, "h", []float64{1, 2}).Observe(1.5)
		}
		r.EndRun(5e9)
		return r.Snapshot()
	}
	a := build([]string{"ap1", "ap2", "controller"})
	b := build([]string{"controller", "ap2", "ap1"})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshot depends on wiring order:\n%+v\n%+v", a, b)
	}
	for i := 1; i < len(a.Counters); i++ {
		if a.Counters[i-1].Component > a.Counters[i].Component {
			t.Fatalf("counters not sorted: %+v", a.Counters)
		}
	}

	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, back) {
		t.Fatalf("JSON round-trip changed the snapshot:\n%+v\n%+v", a, back)
	}
}

func TestMerge(t *testing.T) {
	mk := func(n uint64, spanID uint32) Snapshot {
		r := NewRegistry()
		r.CounterAt("controller", "csi_reports", &n)
		r.Gauge("dedup", "size").Set(float64(n))
		r.Histogram("ap1", "queue_depth", []float64{1, 2}).Observe(float64(n))
		tr := r.SwitchSpans()
		tr.Begin(spanID, 0, "c", 0, 1, "median-argmax", 0, 0)
		tr.End(spanID, 17e6, false)
		r.EndRun(1e9)
		return r.Snapshot()
	}
	m := Merge(mk(2, 1), mk(5, 2))
	if m.DurationNS != 2e9 {
		t.Fatalf("duration = %d, want 2e9", m.DurationNS)
	}
	if m.Counters[0].Value != 7 {
		t.Fatalf("merged counter = %d, want 7", m.Counters[0].Value)
	}
	if m.Gauges[0].Value != 7 {
		t.Fatalf("merged gauge = %v, want 7", m.Gauges[0].Value)
	}
	h := m.Histograms[0]
	if h.Count != 2 || h.Min != 2 || h.Max != 5 {
		t.Fatalf("merged histogram = %+v", h)
	}
	if len(m.Spans) != 2 || m.Spans[0].ID != 1 || m.Spans[1].ID != 2 {
		t.Fatalf("merged spans = %+v", m.Spans)
	}

	// Mismatched bounds: first shape wins, no panic.
	r := NewRegistry()
	r.Histogram("ap1", "queue_depth", []float64{10}).Observe(3)
	odd := r.Snapshot()
	m2 := Merge(mk(1, 3), odd)
	if m2.Histograms[0].Count != 1 {
		t.Fatalf("mismatched-bounds merge = %+v", m2.Histograms[0])
	}
}

func TestFprint(t *testing.T) {
	r := NewRegistry()
	reports := uint64(1000)
	r.CounterAt("controller", "csi_reports", &reports)
	r.Gauge("dedup", "size").Set(42)
	r.Histogram("controller", "window_occupancy", []float64{4, 16, 64}).Observe(12)
	tr := r.SwitchSpans()
	tr.Begin(1, 0, "c", 0, 1, "median-argmax", 10, 13)
	tr.MarkStopHandled(1, 7e6)
	tr.MarkStartHandled(1, 16e6)
	tr.End(1, 17e6, false)
	r.EndRun(10e9)

	var buf bytes.Buffer
	Fprint(&buf, r.Snapshot())
	out := buf.String()
	for _, want := range []string{
		"10.0 simulated seconds",
		"csi_reports", "100.0", // the rate column
		"window_occupancy",
		"dedup", "42.0",
		"switch spans", "1 begun, 1 completed",
		"median 17.0 ms",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fprint output missing %q:\n%s", want, out)
		}
	}
}
