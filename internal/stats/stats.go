// Package stats provides the measurement utilities the evaluation harness
// uses to turn packet logs into the paper's tables and figures (§5): binned
// throughput time series (the Fig. 14/15 timelines), empirical CDFs and
// quantiles (the Fig. 16 bitrate and §7 fleet distributions), and small
// summary helpers.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"wgtt/internal/sim"
)

// ThroughputSeries accumulates delivered bytes into fixed-width time bins
// and reports Mbit/s per bin — the black throughput curves of Figs. 14–15.
type ThroughputSeries struct {
	Bin   sim.Time
	bytes []uint64
}

// NewThroughputSeries creates a series with the given bin width.
func NewThroughputSeries(bin sim.Time) *ThroughputSeries {
	if bin <= 0 {
		bin = 100 * sim.Millisecond
	}
	return &ThroughputSeries{Bin: bin}
}

// Add records bytes delivered at time at.
func (s *ThroughputSeries) Add(at sim.Time, bytes int) {
	i := int(at / s.Bin)
	for len(s.bytes) <= i {
		s.bytes = append(s.bytes, 0)
	}
	s.bytes[i] += uint64(bytes)
}

// Mbps returns the per-bin throughput in Mbit/s.
func (s *ThroughputSeries) Mbps() []float64 {
	out := make([]float64, len(s.bytes))
	binSec := s.Bin.Seconds()
	for i, b := range s.bytes {
		out[i] = float64(b) * 8 / 1e6 / binSec
	}
	return out
}

// CDF is an empirical distribution built from samples.
type CDF struct {
	samples []float64
	sorted  bool
}

// Add appends one sample.
func (c *CDF) Add(v float64) {
	c.samples = append(c.samples, v)
	c.sorted = false
}

// AddAll appends many samples.
func (c *CDF) AddAll(vs []float64) {
	c.samples = append(c.samples, vs...)
	c.sorted = false
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.samples) }

// Quantiles evaluates several quantiles at once (report rows).
func Quantiles(c *CDF, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = c.Quantile(q)
	}
	return out
}

func (c *CDF) ensure() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) or NaN when empty.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	c.ensure()
	if q <= 0 {
		return c.samples[0]
	}
	if q >= 1 {
		return c.samples[len(c.samples)-1]
	}
	idx := q * float64(len(c.samples)-1)
	lo := int(idx)
	frac := idx - float64(lo)
	if lo+1 >= len(c.samples) {
		return c.samples[len(c.samples)-1]
	}
	return c.samples[lo]*(1-frac) + c.samples[lo+1]*frac
}

// Mean returns the sample mean (NaN when empty).
func (c *CDF) Mean() float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range c.samples {
		sum += v
	}
	return sum / float64(len(c.samples))
}

// StdDev returns the sample standard deviation.
func (c *CDF) StdDev() float64 {
	n := len(c.samples)
	if n < 2 {
		return 0
	}
	m := c.Mean()
	var ss float64
	for _, v := range c.samples {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Table is a tiny fixed-width text table builder for experiment output.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// F formats a float compactly for table cells.
func F(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.2f", v)
}
