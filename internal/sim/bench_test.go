package sim

import "testing"

// BenchmarkEngineSelfReschedule measures the per-event schedule+dispatch
// cost of a self-rescheduling tick — the keepalive/sampling pattern that
// dominates the engine's steady-state load.
func BenchmarkEngineSelfReschedule(b *testing.B) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(Millisecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(Millisecond, tick)
	e.Run()
	if n != b.N {
		b.Fatalf("fired %d, want %d", n, b.N)
	}
}

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

// BenchmarkEngineMixedLoad interleaves live ticks with cancelled timeouts,
// the shape of a real run (data exchanges armed with timeouts that a Block
// ACK then cancels).
func BenchmarkEngineMixedLoad(b *testing.B) {
	e := NewEngine()
	nop := func() {}
	n := 0
	var tick func()
	tick = func() {
		n++
		t := e.After(30*Millisecond, nop) // timeout...
		t.Stop()                          // ...cancelled by the "ack"
		if n < b.N {
			e.After(Millisecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(Millisecond, tick)
	e.Run()
}
