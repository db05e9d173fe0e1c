package selector

import (
	"testing"

	"wgtt/internal/sim"
)

// BenchmarkWindowMedian drives one (client, AP) ESNR window the way the
// controller's CSI ingest does: one push plus one median query per report,
// with a ~100-entry steady-state window (10 ms span, 100 µs inter-report
// spacing).
func BenchmarkWindowMedian(b *testing.B) {
	w := NewWindow(10 * sim.Millisecond)
	vals := [16]float64{21, 18.5, 23, 19, 25.5, 17, 22, 24, 20, 18, 26, 21.5, 19.5, 23.5, 20.5, 22.5}
	at := sim.Time(0)
	for i := 0; i < 128; i++ { // warm to steady state
		at += 100 * sim.Microsecond
		w.Push(at, vals[i&15])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at += 100 * sim.Microsecond
		w.Push(at, vals[i&15])
		if _, ok := w.Median(at); !ok {
			b.Fatal("empty window")
		}
	}
}
