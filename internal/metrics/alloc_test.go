package metrics

import "testing"

// Disabled recording is a nil handle; the hot paths (CSI ingest, enqueue,
// uplink dedup) call through these handles on every event, so both the
// disabled and the enabled steady state must be allocation-free. Span
// creation (Begin) is exempt — switches are control-plane-rate events —
// but the id-keyed marks that ride hot-adjacent paths are not.
func TestRecordingZeroAlloc(t *testing.T) {
	check := func(name string, fn func()) {
		t.Helper()
		if avg := testing.AllocsPerRun(200, fn); avg != 0 {
			t.Errorf("%s allocates %.1f times per op, want 0", name, avg)
		}
	}

	var (
		nilG *Gauge
		nilH *Histogram
		nilT *SpanTracker
	)
	check("nil Gauge.Set", func() { nilG.Set(1) })
	check("nil Histogram.Observe", func() { nilH.Observe(1) })
	check("nil SpanTracker ops", func() {
		nilT.Begin(1, 0, "c", 0, 1, "median-argmax", 0, 0)
		nilT.MarkStopHandled(1, 0)
		nilT.MarkStartHandled(1, 0)
		nilT.AddRetransmit(1)
		nilT.ObserveDrain(1, 0, 0)
		nilT.End(1, 0, false)
	})

	r := NewRegistry()
	g := r.Gauge("dedup", "size")
	h := r.Histogram("controller", "window_occupancy", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
	tr := r.SwitchSpans()
	tr.Begin(1, 0, "c", 0, 1, "median-argmax", 0, 0)

	i := 0.0
	check("enabled Gauge.Set", func() { i++; g.Set(i) })
	check("enabled Histogram.Observe", func() { i++; h.Observe(i) })
	check("enabled span marks", func() {
		tr.MarkStopHandled(1, 1)
		tr.MarkStartHandled(1, 2)
		tr.AddRetransmit(1)
		tr.ObserveDrain(1, 3, 4)
	})
}
