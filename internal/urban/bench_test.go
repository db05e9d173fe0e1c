package urban

import (
	"testing"

	"wgtt/internal/sim"
)

// BenchmarkUrbanStep is the per-tick trace evaluation cost: one position
// sample for every client of the default city. This is what the
// core network pays per oracle/CSI tick, so it must stay allocation-free.
func BenchmarkUrbanStep(b *testing.B) {
	p, err := BuildPlan(DefaultConfig(), 7)
	if err != nil {
		b.Fatal(err)
	}
	step := 10 * sim.Millisecond
	var t sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t += step
		if t > p.Duration {
			t = 0
		}
		for _, c := range p.Clients {
			pos := c.Trace.Position(t)
			sinkX += pos.X
			sinkY += pos.Y
		}
	}
}

var sinkX, sinkY float64

// TestUrbanStepZeroAlloc pins the per-tick evaluation at zero allocations.
func TestUrbanStepZeroAlloc(t *testing.T) {
	p, err := BuildPlan(DefaultConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	at := p.Duration / 2
	allocs := testing.AllocsPerRun(100, func() {
		for _, c := range p.Clients {
			pos := c.Trace.Position(at)
			sinkX += pos.X
			sinkY += pos.Y
		}
	})
	if allocs != 0 {
		t.Fatalf("urban step allocates %v per run, want 0", allocs)
	}
}
