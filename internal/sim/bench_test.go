package sim

import "testing"

// BenchmarkEngineScheduleCancel measures the schedule-then-cancel churn of
// retransmission timeouts (armed per frame, almost always stopped) and
// verifies the queue does not bloat with lazily-cancelled entries.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := NewEngine()
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := e.After(Second, nop)
		t.Stop()
	}
	b.StopTimer()
	b.ReportMetric(float64(pending(e)), "pending-after")
}
