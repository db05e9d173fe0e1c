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
}

func TestCDFEmpty(t *testing.T) {
	c := &CDF{}
	if !math.IsNaN(c.Quantile(0.5)) || !math.IsNaN(c.Mean()) {
		t.Error("empty CDF should be NaN")
	}
	if c.StdDev() != 0 {
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
