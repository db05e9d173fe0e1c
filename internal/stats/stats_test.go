package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"wgtt/internal/sim"
)

func TestThroughputSeries(t *testing.T) {
	s := NewThroughputSeries(100 * sim.Millisecond)
	// 1 Mbit in the first bin, 2 Mbit in the third.
	s.Add(50*sim.Millisecond, 125000)
	s.Add(250*sim.Millisecond, 250000)
	m := s.Mbps()
	if len(m) != 3 {
		t.Fatalf("bins = %d", len(m))
	}
	if math.Abs(m[0]-10) > 1e-9 { // 1 Mbit / 0.1 s
		t.Errorf("bin0 = %v", m[0])
	}
	if m[1] != 0 || math.Abs(m[2]-20) > 1e-9 {
		t.Errorf("bins = %v", m)
	}
	if NewThroughputSeries(0).Bin <= 0 {
		t.Error("zero bin not defaulted")
	}
}

func TestCDFQuantiles(t *testing.T) {
	c := &CDF{}
	for i := 1; i <= 100; i++ {
		c.Add(float64(i))
	}
	if q := c.Quantile(0.5); math.Abs(q-50.5) > 1 {
		t.Errorf("median = %v", q)
	}
	if q := c.Quantile(0.9); math.Abs(q-90.1) > 1 {
		t.Errorf("p90 = %v", q)
	}
	if c.Quantile(0) != 1 || c.Quantile(1) != 100 {
		t.Error("extremes wrong")
	}
	if m := c.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Errorf("mean = %v", m)
	}
	if sd := c.StdDev(); math.Abs(sd-29.0115) > 0.01 {
		t.Errorf("stddev = %v", sd)
	}
	if at := c.At(50); math.Abs(at-0.5) > 0.02 {
		t.Errorf("At(50) = %v", at)
	}
	if pts := c.Points(11); len(pts) != 11 || pts[0][1] != 0 || pts[10][1] != 1 {
		t.Errorf("points = %v", pts)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := &CDF{}
	if !math.IsNaN(c.Quantile(0.5)) || !math.IsNaN(c.Mean()) {
		t.Error("empty CDF should be NaN")
	}
	if c.At(1) != 0 || c.Points(5) != nil || c.StdDev() != 0 {
		t.Error("empty CDF misbehaves")
	}
}

func TestCDFQuantileMonotone(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		c := &CDF{}
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				c.Add(v)
			}
		}
		if c.N() == 0 {
			return true
		}
		q1 = math.Mod(math.Abs(q1), 1)
		q2 = math.Mod(math.Abs(q2), 1)
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		return c.Quantile(q1) <= c.Quantile(q2)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMeanHelper(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean wrong")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("empty Mean should be NaN")
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{Header: []string{"speed", "tcp", "udp"}}
	tb.AddRow("5", F(6.62), F(8.71))
	tb.AddRow("25", F(math.NaN()), F(math.Inf(1)))
	out := tb.String()
	if !strings.Contains(out, "speed") || !strings.Contains(out, "6.62") {
		t.Errorf("table output:\n%s", out)
	}
	if !strings.Contains(out, "-") || !strings.Contains(out, "inf") {
		t.Errorf("special values not rendered:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines", len(lines))
	}
}

func TestCDFMerge(t *testing.T) {
	a, b := &CDF{}, &CDF{}
	a.AddAll([]float64{1, 3, 5})
	b.AddAll([]float64{2, 4})
	a.Merge(b)
	if a.N() != 5 {
		t.Fatalf("merged N = %d", a.N())
	}
	if a.Quantile(0) != 1 || a.Quantile(1) != 5 || a.Quantile(0.5) != 3 {
		t.Errorf("merged quantiles wrong: %v %v %v",
			a.Quantile(0), a.Quantile(0.5), a.Quantile(1))
	}
	// The source is untouched, and degenerate merges are no-ops.
	if b.N() != 2 {
		t.Errorf("Merge mutated its argument: N=%d", b.N())
	}
	a.Merge(nil)
	a.Merge(&CDF{})
	if a.N() != 5 {
		t.Errorf("degenerate merge changed N: %d", a.N())
	}
}

func TestQuantilesBatch(t *testing.T) {
	c := &CDF{}
	c.AddAll([]float64{10, 20, 30, 40})
	got := Quantiles(c, 0, 0.5, 1)
	want := []float64{10, 25, 40}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Quantiles[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if qs := Quantiles(&CDF{}, 0.5); !math.IsNaN(qs[0]) {
		t.Error("empty CDF quantile should be NaN")
	}
}
