// Package metrics is the observability layer of the reproduction: a
// registry of counters, gauges, and fixed-bucket histograms keyed by
// component, plus span-level tracing of the §3.1.2 switching protocol
// (one span per stop(c) → start(c, k) → ack sequence). WGTT's value
// proposition is timing — millisecond AP selection over a 10 ms median
// window (§3.1.1) and a switch that completes in ~17 ms (§3.1, Table 1) —
// so the instruments are built to observe those paths without perturbing
// them: recording is disabled by default, every handle is nil-safe (a nil
// *Counter, *Gauge, *Histogram, or *SpanTracker is an inert no-op), and
// the enabled paths are allocation-free at steady state, so the PR 2
// zero-alloc invariants of DESIGN.md §9 hold with metrics on or off.
//
// Ownership model: a Registry is single-goroutine, like the simulation
// cell it instruments. Fleet deployments and the parallel experiment
// registry create one Registry per cell/experiment and combine the
// immutable Snapshots afterwards with Merge. See DESIGN.md §10.
package metrics

import "sort"

// Counter is a monotonically increasing event count. The zero value is
// ready to use; a nil *Counter is a valid no-op, which is how
// disabled-by-default recording costs one predictable branch on hot paths.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Gauge is a last-value instrument (queue sizes, hashset occupancy). A nil
// *Gauge is a valid no-op.
type Gauge struct {
	v   float64
	set bool
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
		g.set = true
	}
}

// Histogram counts observations into fixed buckets: bucket i holds
// observations ≤ Bounds[i]; one implicit overflow bucket holds the rest.
// Observe is allocation-free (a linear scan over a handful of bounds), so
// it is safe on per-report paths. A nil *Histogram is a valid no-op.
type Histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; last is the overflow bucket
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// key identifies one instrument within a registry.
type key struct {
	component, name string
}

// Registry holds a simulation's instruments. Handles are created (or
// found) by Counter/Gauge/Histogram/Spans at wiring time — typically once,
// before the run — and written through during it. All methods on a nil
// *Registry return nil handles, so "metrics disabled" is simply a nil
// registry threaded through the same wiring calls.
type Registry struct {
	counters map[key]*Counter
	gauges   map[key]*Gauge
	hists    map[key]*Histogram
	spans    map[string]*SpanTracker

	// durNS accumulates the simulated duration covered by the registry
	// (AddDuration), which turns counters into rates in Fprint.
	durNS int64
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[key]*Counter),
		gauges:   make(map[key]*Gauge),
		hists:    make(map[key]*Histogram),
		spans:    make(map[string]*SpanTracker),
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Counter(component, name string) *Counter {
	if r == nil {
		return nil
	}
	k := key{component, name}
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on
// a nil registry.
func (r *Registry) Gauge(component, name string) *Gauge {
	if r == nil {
		return nil
	}
	k := key{component, name}
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds (ascending) on first use; later calls ignore bounds and
// return the existing instrument. Returns nil on a nil registry.
func (r *Registry) Histogram(component, name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	k := key{component, name}
	h, ok := r.hists[k]
	if !ok {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
		r.hists[k] = h
	}
	return h
}

// Spans returns the named span tracker, creating it on first use. The
// switching protocol uses one shared tracker (SwitchSpans): the controller
// begins and ends spans, the APs mark the intermediate protocol states.
// Returns nil on a nil registry.
func (r *Registry) Spans(name string) *SpanTracker {
	if r == nil {
		return nil
	}
	t, ok := r.spans[name]
	if !ok {
		t = newSpanTracker(name)
		r.spans[name] = t
	}
	return t
}

// SwitchSpanTracker is the canonical name of the §3.1.2 switch-protocol
// span tracker.
const SwitchSpanTracker = "switch"

// SwitchSpans returns the switch-protocol span tracker (nil on a nil
// registry).
func (r *Registry) SwitchSpans() *SpanTracker {
	return r.Spans(SwitchSpanTracker)
}

// RecoverySpanTracker is the canonical name of the AP-failure recovery
// span tracker (detect → reselect → ack, DESIGN.md §11). Its spans share
// the SwitchSpan shape but are excluded from the Table 1 switch digest.
const RecoverySpanTracker = "recovery"

// RecoverySpans returns the failure-recovery span tracker (nil on a nil
// registry).
func (r *Registry) RecoverySpans() *SpanTracker {
	return r.Spans(RecoverySpanTracker)
}

// HandoffSpanTracker is the canonical name of the inter-controller handoff
// span tracker (offer → commit, DESIGN.md §13). The owning controller
// begins a span when it offers a client to a peer domain and ends it when
// it commits the transfer; an aborted handoff leaves its span incomplete.
const HandoffSpanTracker = "handoff"

// HandoffSpans returns the inter-controller handoff span tracker (nil on a
// nil registry).
func (r *Registry) HandoffSpans() *SpanTracker {
	return r.Spans(HandoffSpanTracker)
}

// AddDuration accumulates simulated run time covered by this registry.
// Fprint uses the total to report counter rates (e.g. ESNR reports/s).
func (r *Registry) AddDuration(ns int64) {
	if r != nil {
		r.durNS += ns
	}
}
