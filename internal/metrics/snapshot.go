package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// CounterSnap is one counter's state.
type CounterSnap struct {
	Component string `json:"component"`
	Name      string `json:"name"`
	Value     uint64 `json:"value"`
}

// GaugeSnap is one gauge's state.
type GaugeSnap struct {
	Component string  `json:"component"`
	Name      string  `json:"name"`
	Value     float64 `json:"value"`
}

// HistogramSnap is one histogram's state. Buckets[i] counts observations
// ≤ Bounds[i]; the final extra bucket counts the overflow.
type HistogramSnap struct {
	Component string    `json:"component"`
	Name      string    `json:"name"`
	Bounds    []float64 `json:"bounds"`
	Buckets   []uint64  `json:"buckets"`
	Count     uint64    `json:"count"`
	Sum       float64   `json:"sum"`
	Min       float64   `json:"min"`
	Max       float64   `json:"max"`
}

// Quantile estimates the q-quantile (0..1) by linear interpolation inside
// the containing bucket, clamped to [Min, Max].
func (h *HistogramSnap) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum uint64
	lo := h.Min
	for i, n := range h.Buckets {
		hi := h.Max
		if i < len(h.Bounds) && h.Bounds[i] < hi {
			hi = h.Bounds[i]
		}
		if n > 0 && float64(cum+n) >= rank {
			frac := (rank - float64(cum)) / float64(n)
			v := lo + frac*(hi-lo)
			if v < h.Min {
				v = h.Min
			}
			if v > h.Max {
				v = h.Max
			}
			return v
		}
		cum += n
		if hi > lo {
			lo = hi
		}
	}
	return h.Max
}

// Mean returns the arithmetic mean of the observations.
func (h *HistogramSnap) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Snapshot is the immutable state of a Registry: instruments sorted by
// (component, name) and switch spans in initiation order, so equal runs
// produce byte-identical snapshots regardless of wiring order.
type Snapshot struct {
	DurationNS int64           `json:"duration_ns,omitempty"`
	Counters   []CounterSnap   `json:"counters,omitempty"`
	Gauges     []GaugeSnap     `json:"gauges,omitempty"`
	Histograms []HistogramSnap `json:"histograms,omitempty"`
	Spans      []SwitchSpan    `json:"switch_spans,omitempty"`
}

// Snapshot captures the registry's current state. Safe on a nil registry
// (returns a zero Snapshot). The caller must have quiesced the simulation
// (the registry is single-goroutine; see the package comment).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{DurationNS: r.durNS}
	for k, v := range r.counts() {
		s.Counters = append(s.Counters, CounterSnap{k.component, k.name, v})
	}
	for k, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{k.component, k.name, g.v})
	}
	for k, h := range r.hists {
		s.Histograms = append(s.Histograms, HistogramSnap{
			Component: k.component, Name: k.name,
			Bounds:  append([]float64(nil), h.bounds...),
			Buckets: append([]uint64(nil), h.counts...),
			Count:   h.count, Sum: h.sum, Min: h.min, Max: h.max,
		})
	}
	sortSnap(&s)
	// All trackers snapshot into the one spans list, in name order. Spans
	// from non-switch trackers (e.g. recovery) carry their tracker's name so
	// consumers can separate the streams after a Merge; switch-protocol
	// spans keep an empty Tracker, preserving the exact JSON of snapshots
	// taken before other trackers existed.
	var names []string
	for name := range r.spans {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		snaps := r.spans[name].snapshot()
		if name != SwitchSpanTracker {
			for i := range snaps {
				snaps[i].Tracker = name
			}
		}
		s.Spans = append(s.Spans, snaps...)
	}
	return s
}

// counts returns every counter's current value: what EndRun folded plus
// what the CounterAt views read right now.
func (r *Registry) counts() map[key]uint64 {
	counts := make(map[key]uint64, len(r.counters)+len(r.views))
	for k, v := range r.counters {
		counts[k] = v
	}
	for k, views := range r.views {
		for _, v := range views {
			counts[k] += *v
		}
	}
	return counts
}

func sortSnap(s *Snapshot) {
	sort.Slice(s.Counters, func(i, j int) bool {
		a, b := s.Counters[i], s.Counters[j]
		return a.Component < b.Component || (a.Component == b.Component && a.Name < b.Name)
	})
	sort.Slice(s.Gauges, func(i, j int) bool {
		a, b := s.Gauges[i], s.Gauges[j]
		return a.Component < b.Component || (a.Component == b.Component && a.Name < b.Name)
	})
	sort.Slice(s.Histograms, func(i, j int) bool {
		a, b := s.Histograms[i], s.Histograms[j]
		return a.Component < b.Component || (a.Component == b.Component && a.Name < b.Name)
	})
}

// Merge combines snapshots from independent registries (fleet cells,
// parallel experiments): counters and gauges sum per (component, name),
// histograms with identical bounds merge bucket-wise, durations add, and
// spans concatenate in argument order. Counter rates over the merged
// duration therefore read as "per simulated second across all cells".
func Merge(snaps ...Snapshot) Snapshot {
	var out Snapshot
	ctr := make(map[key]uint64)
	gag := make(map[key]float64)
	hist := make(map[key]*HistogramSnap)
	for _, s := range snaps {
		out.DurationNS += s.DurationNS
		for _, c := range s.Counters {
			ctr[key{c.Component, c.Name}] += c.Value
		}
		for _, g := range s.Gauges {
			gag[key{g.Component, g.Name}] += g.Value
		}
		for _, h := range s.Histograms {
			k := key{h.Component, h.Name}
			have, ok := hist[k]
			if !ok {
				cp := h
				cp.Bounds = append([]float64(nil), h.Bounds...)
				cp.Buckets = append([]uint64(nil), h.Buckets...)
				hist[k] = &cp
				continue
			}
			if !sameBounds(have.Bounds, h.Bounds) {
				continue // incompatible shapes: keep the first
			}
			for i := range h.Buckets {
				have.Buckets[i] += h.Buckets[i]
			}
			if h.Count > 0 {
				if have.Count == 0 || h.Min < have.Min {
					have.Min = h.Min
				}
				if have.Count == 0 || h.Max > have.Max {
					have.Max = h.Max
				}
				have.Count += h.Count
				have.Sum += h.Sum
			}
		}
		out.Spans = append(out.Spans, s.Spans...)
	}
	for k, v := range ctr {
		out.Counters = append(out.Counters, CounterSnap{k.component, k.name, v})
	}
	for k, v := range gag {
		out.Gauges = append(out.Gauges, GaugeSnap{k.component, k.name, v})
	}
	for _, h := range hist {
		out.Histograms = append(out.Histograms, *h)
	}
	sortSnap(&out)
	return out
}

// Rename renames the counter, gauge and histogram rows whose component is
// a key of names — how a caller gives rows that Merge would otherwise sum
// (the same component name meaning different nodes in different runs)
// distinct names first. Spans keep their names.
func (s *Snapshot) Rename(names map[string]string) {
	rename := func(component *string) {
		if n, ok := names[*component]; ok {
			*component = n
		}
	}
	for i := range s.Counters {
		rename(&s.Counters[i].Component)
	}
	for i := range s.Gauges {
		rename(&s.Gauges[i].Component)
	}
	for i := range s.Histograms {
		rename(&s.Histograms[i].Component)
	}
}

func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SwitchSummary aggregates the switch spans of a snapshot.
type SwitchSummary struct {
	// Total spans begun; Completed of them saw their ack, CutShort were
	// dropped by a controller crash.
	Total, Completed, CutShort int
	// Quantiles of completed-span execution time (stop sent → ack), ns.
	MedianNS, P95NS int64
	// Retransmits across all spans.
	Retransmits int
	// Median protocol segment latencies (completed spans with the mark
	// observed): stop sent → stop handled, stop handled → start handled,
	// start handled → ack.
	StopSegNS, StartSegNS, AckSegNS int64
	// Hardware-queue drain: spans that drained MPDUs, and the median
	// drain time among them.
	Drained       int
	DrainMedianNS int64
}

// SwitchSummary computes the summary over the switch-protocol spans of
// s.Spans (spans tagged with another tracker's name — recovery spans —
// are skipped so they cannot skew the Table 1 digest).
func (s *Snapshot) SwitchSummary() SwitchSummary {
	var sum SwitchSummary
	var durs, stops, starts, acks, drains []int64
	for i := range s.Spans {
		sp := &s.Spans[i]
		if sp.Tracker != "" && sp.Tracker != SwitchSpanTracker {
			continue
		}
		sum.Total++
		sum.Retransmits += sp.Retransmits
		if sp.DrainMPDUs > 0 {
			sum.Drained++
			drains = append(drains, sp.DrainNS)
		}
		if sp.CutShort {
			sum.CutShort++
		}
		if !sp.Completed {
			continue
		}
		sum.Completed++
		durs = append(durs, sp.DurationNS())
		if sp.StopHandledNS > 0 {
			stops = append(stops, sp.StopHandledNS-sp.StartNS)
			if sp.StartHandledNS > 0 {
				starts = append(starts, sp.StartHandledNS-sp.StopHandledNS)
				acks = append(acks, sp.EndNS-sp.StartHandledNS)
			}
		}
	}
	sum.MedianNS = quantileNS(durs, 0.5)
	sum.P95NS = quantileNS(durs, 0.95)
	sum.StopSegNS = quantileNS(stops, 0.5)
	sum.StartSegNS = quantileNS(starts, 0.5)
	sum.AckSegNS = quantileNS(acks, 0.5)
	sum.DrainMedianNS = quantileNS(drains, 0.5)
	return sum
}

// quantileNS returns the q-quantile of xs (upper-median convention, like
// the paper's window median). xs is sorted in place.
func quantileNS(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteFile writes the snapshot to path as JSON — or, when path is "-",
// renders the human-readable Fprint table to stdout instead. This is the
// shared behavior of every CLI's -metrics flag.
func (s *Snapshot) WriteFile(path string) error {
	if path == "-" {
		Fprint(os.Stdout, *s)
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Fprint renders the snapshot as a human-readable table: counters (with
// rates when the snapshot covers a known duration), gauges, histogram
// summaries, and the switch-protocol span digest.
func Fprint(w io.Writer, s Snapshot) {
	secs := float64(s.DurationNS) / 1e9
	if secs > 0 {
		fmt.Fprintf(w, "metrics over %.1f simulated seconds\n", secs)
	} else {
		fmt.Fprintf(w, "metrics (duration unknown)\n")
	}
	if len(s.Counters) > 0 {
		fmt.Fprintf(w, "\ncounters\n")
		fmt.Fprintf(w, "  %-12s %-24s %12s %12s\n", "component", "name", "value", "/s")
		for _, c := range s.Counters {
			rate := "-"
			if secs > 0 {
				rate = fmt.Sprintf("%.1f", float64(c.Value)/secs)
			}
			fmt.Fprintf(w, "  %-12s %-24s %12d %12s\n", c.Component, c.Name, c.Value, rate)
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintf(w, "\ngauges\n")
		fmt.Fprintf(w, "  %-12s %-24s %12s\n", "component", "name", "value")
		for _, g := range s.Gauges {
			fmt.Fprintf(w, "  %-12s %-24s %12.1f\n", g.Component, g.Name, g.Value)
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintf(w, "\nhistograms\n")
		fmt.Fprintf(w, "  %-12s %-24s %10s %8s %8s %8s %8s %8s\n",
			"component", "name", "count", "min", "p50", "p95", "max", "mean")
		for i := range s.Histograms {
			h := &s.Histograms[i]
			fmt.Fprintf(w, "  %-12s %-24s %10d %8.1f %8.1f %8.1f %8.1f %8.1f\n",
				h.Component, h.Name, h.Count, h.Min, h.Quantile(0.5), h.Quantile(0.95), h.Max, h.Mean())
		}
	}
	if len(s.Spans) > 0 {
		sum := s.SwitchSummary()
		if sum.Total > 0 {
			fmt.Fprintf(w, "\nswitch spans (stop → start → ack, §3.1.2)\n")
			cut := ""
			if sum.CutShort > 0 {
				cut = fmt.Sprintf(", %d cut short by a controller crash", sum.CutShort)
			}
			fmt.Fprintf(w, "  %d begun, %d completed%s, %d stop retransmits\n",
				sum.Total, sum.Completed, cut, sum.Retransmits)
			fmt.Fprintf(w, "  execution time: median %.1f ms, p95 %.1f ms\n",
				ms(sum.MedianNS), ms(sum.P95NS))
			fmt.Fprintf(w, "  segment medians: stop %.1f ms, start %.1f ms, ack %.1f ms\n",
				ms(sum.StopSegNS), ms(sum.StartSegNS), ms(sum.AckSegNS))
			fmt.Fprintf(w, "  hardware-queue drain: %d switches drained MPDUs, median %.1f ms\n",
				sum.Drained, ms(sum.DrainMedianNS))
		}
		// The other trackers' digests: what began, what completed, how long.
		for _, dg := range []struct{ tracker, title, begun, ended, time string }{
			{RecoverySpanTracker, "recovery spans (detect → reselect → ack, DESIGN.md §11)",
				"AP failures detected", "recovered", "recovery time"},
			{HandoffSpanTracker, "handoff spans (offer → commit, DESIGN.md §13)",
				"handoffs offered", "committed", "offer→commit time"},
		} {
			var durs []int64
			total, done := 0, 0
			for i := range s.Spans {
				sp := &s.Spans[i]
				if sp.Tracker != dg.tracker {
					continue
				}
				total++
				if sp.Completed {
					done++
					durs = append(durs, sp.DurationNS())
				}
			}
			if total > 0 {
				fmt.Fprintf(w, "\n%s\n  %d %s, %d %s\n", dg.title, total, dg.begun, done, dg.ended)
				fmt.Fprintf(w, "  %s: median %.1f ms, p95 %.1f ms\n",
					dg.time, ms(quantileNS(durs, 0.5)), ms(quantileNS(durs, 0.95)))
			}
		}
	}
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
