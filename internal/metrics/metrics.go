// Package metrics is the observability layer of the reproduction: a
// registry of counters, gauges, and fixed-bucket histograms keyed by
// component, plus span-level tracing of the §3.1.2 switching protocol
// (one span per stop(c) → start(c, k) → ack sequence). WGTT's value
// proposition is timing — millisecond AP selection over a 10 ms median
// window (§3.1.1) and a switch that completes in ~17 ms (§3.1, Table 1) —
// so the instruments are built to observe those paths without perturbing
// them. A counter is a field of its component's Stats struct, counted there
// once; the registry only names it (CounterAt) and reads it at Snapshot.
// Gauges, histograms and span trackers are the live instruments: disabled
// by default, nil-safe (a nil handle is an inert no-op), and allocation-free
// at steady state when enabled, so the PR 2 zero-alloc invariants of
// DESIGN.md §9 hold with metrics on or off.
//
// Ownership model: a Registry is single-goroutine, like the simulation
// cell it instruments. Fleet deployments and the parallel experiment
// registry create one Registry per cell/experiment and combine the
// immutable Snapshots afterwards with Merge. See DESIGN.md §10.
package metrics

import "sort"

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
// found) by Gauge/Histogram/Spans at wiring time — typically once,
// before the run — and written through during it. All methods on a nil
// *Registry return nil handles, so "metrics disabled" is simply a nil
// registry threaded through the same wiring calls.
type Registry struct {
	gauges map[key]*Gauge
	hists  map[key]*Histogram
	spans  map[string]*SpanTracker

	// views are the live counters: each names a uint64 its component owns
	// (a Stats field) and is read at Snapshot. counters holds what EndRun
	// folded out of the views of finished runs.
	views    map[key][]*uint64
	counters map[key]uint64

	// durNS accumulates the simulated duration covered by the registry
	// (EndRun), which turns counters into rates in Fprint.
	durNS int64
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		views:  make(map[key][]*uint64),
		gauges: make(map[key]*Gauge),
		hists:  make(map[key]*Histogram),
		spans:  make(map[string]*SpanTracker),
	}
}

// CounterAt names a counter the caller owns: v — a field of the
// component's Stats struct — stays the only storage and the only thing the
// component increments, and Snapshot reads it. Several views under one
// (component, name) sum, which is how the domains of a federation and the
// networks an experiment builds one after another share a registry. Until
// EndRun the registry keeps v, and so the struct holding it, reachable.
// No-op on a nil registry.
func (r *Registry) CounterAt(component, name string, v *uint64) {
	if r != nil {
		k := key{component, name}
		r.views[k] = append(r.views[k], v)
	}
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

// EndRun closes one finished run of ns simulated nanoseconds. The duration
// accumulates — Fprint turns counters into rates with it (ESNR reports/s) —
// and every CounterAt view is folded into a plain total and dropped, so a
// registry shared by sequentially built networks (an experiment's) holds
// none of them once it has run. Whatever a component counts after EndRun is
// no longer seen. The recorded spans stay, in order, but their ids are
// forgotten: the next network numbers its switches from the start again.
func (r *Registry) EndRun(ns int64) {
	if r == nil {
		return
	}
	r.durNS += ns
	r.counters = r.counts()
	clear(r.views)
	for _, t := range r.spans {
		clear(t.byID)
	}
}
