package metrics

// CauseMedianArgmax is the initiation cause of a §3.1.1 selection switch:
// the challenger AP's windowed median ESNR beat the incumbent's by at
// least the configured margin. CauseFailover and CauseAPFailure are the
// failure-recovery causes (DESIGN.md §11).
const CauseMedianArgmax = "median-argmax"

// CauseFailover marks a switch forced by the controller because the
// client's serving AP (or its in-flight switch target) was declared dead —
// the stop→start handshake is bypassed with a direct start, since a dead
// AP answers neither stops nor their retransmissions.
const CauseFailover = "failover"

// CauseAPFailure is the cause attached to a recovery span: one AP-death
// incident, from detection through the last stranded client's ack.
const CauseAPFailure = "ap-failure"

// CauseDomainHandoff marks a cross-domain event (DESIGN.md §13): on the
// handoff tracker, one offer→commit transfer between controllers; on the
// switch tracker, the stop→start→ack the adopting controller drives to pull
// the client onto its own domain's AP.
const CauseDomainHandoff = "domain-handoff"

// SwitchSpan traces one execution of the §3.1.2 switching protocol, from
// the controller's first stop(c) transmission to the ack that completes
// the handover. Timestamps are simulated nanoseconds; a zero mark means
// the protocol state was never observed (e.g. the run ended mid-switch).
type SwitchSpan struct {
	// ID is the controller's switch sequence number (the SwitchID carried
	// by stop/start/ack).
	ID uint32 `json:"id"`
	// Client is the handed-over client's MAC address.
	Client string `json:"client"`
	// Cause is why the controller initiated the switch ("median-argmax":
	// the challenger's windowed median ESNR beat the incumbent's by at
	// least the configured margin).
	Cause string `json:"cause"`
	// From and To are AP ids; FromMedianDB and ToMedianDB are their window
	// medians at initiation (the §3.1.1 quantities the decision compared).
	From         int     `json:"from_ap"`
	To           int     `json:"to_ap"`
	FromMedianDB float64 `json:"from_median_db"`
	ToMedianDB   float64 `json:"to_median_db"`

	// StartNS is when the controller sent the first stop(c).
	StartNS int64 `json:"start_ns"`
	// StopHandledNS is when the old AP finished processing stop(c) —
	// including the modelled user-space processing delay that dominates
	// Table 1 — and sent start(c, k).
	StopHandledNS int64 `json:"stop_handled_ns,omitempty"`
	// StartHandledNS is when the new AP installed the cyclic-queue cursor
	// k and sent the ack.
	StartHandledNS int64 `json:"start_handled_ns,omitempty"`
	// EndNS is when the ack reached the controller (switch complete).
	EndNS int64 `json:"end_ns,omitempty"`

	// Retransmits counts stop(c) retransmissions against the 30 ms
	// timeout (§3.1.2); 0 is one clean protocol round.
	Retransmits int `json:"retransmits"`
	// DrainMPDUs and DrainNS describe the old AP's hardware-queue drain:
	// MPDUs already committed toward the NIC get one final transmission
	// opportunity over the inferior link (§3.1.2 measures ~6 ms of them).
	DrainMPDUs int   `json:"drain_mpdus"`
	DrainNS    int64 `json:"drain_ns"`

	// Completed reports whether the ack arrived before the run ended.
	Completed bool `json:"completed"`
	// CutShort marks a switch its controller dropped unfinished because it
	// crashed (DESIGN.md §11); EndNS is then the crash.
	CutShort bool `json:"cut_short,omitempty"`

	// Tracker names the SpanTracker this span came from when it is not the
	// canonical switch tracker (e.g. "recovery" for DESIGN.md §11 AP-failure
	// spans). Empty for switch-protocol spans, which keeps the JSON of
	// chaos-free snapshots identical to earlier releases and lets
	// SwitchSummary tell protocol spans apart after Merge mixed streams.
	Tracker string `json:"tracker,omitempty"`
}

// DurationNS is the stop-sent → ack-received execution time (Table 1's
// metric), or 0 for an incomplete span.
func (s *SwitchSpan) DurationNS() int64 {
	if !s.Completed {
		return 0
	}
	return s.EndNS - s.StartNS
}

// SpanTracker collects SwitchSpans. It is keyed by SwitchID so the
// distributed protocol participants — the controller that begins and ends
// a span, the old AP that marks stop-handled and later reports the drain,
// the new AP that marks start-handled — can all contribute to the same
// span without sharing anything but the id. A nil *SpanTracker is a valid
// no-op, and marks for unknown ids are dropped, so instrumented components
// never need to know whether tracing is on.
//
// Spans are rare (a handful per simulated second) next to the per-frame
// paths, so span creation may allocate; the id-keyed marks on existing
// spans do not.
type SpanTracker struct {
	// order holds every span begun, in Begin order; byID indexes the same
	// spans for marks (spans stay indexed after End: the hardware-queue
	// drain at the old AP routinely outlives the ack at the controller).
	order []*SwitchSpan
	byID  map[uint32]*SwitchSpan
}

// Begin opens the span for one switch attempt. Duplicate ids are ignored
// (the controller allows a single outstanding switch per client, and ids
// are unique within a run; Registry.EndRun forgets them between runs).
func (t *SpanTracker) Begin(id uint32, atNS int64, client string, from, to int, cause string, fromMedianDB, toMedianDB float64) {
	if t == nil {
		return
	}
	if _, dup := t.byID[id]; dup {
		return
	}
	sp := &SwitchSpan{
		ID: id, Client: client, Cause: cause,
		From: from, To: to,
		FromMedianDB: fromMedianDB, ToMedianDB: toMedianDB,
		StartNS: atNS,
	}
	t.order = append(t.order, sp)
	t.byID[id] = sp
}

// MarkStopHandled records when the old AP processed stop(c). Only the
// first mark counts: a retransmitted stop reaching an AP that already
// answered must not rewrite the timeline.
func (t *SpanTracker) MarkStopHandled(id uint32, atNS int64) {
	if t == nil {
		return
	}
	if sp := t.byID[id]; sp != nil && sp.StopHandledNS == 0 {
		sp.StopHandledNS = atNS
	}
}

// MarkStartHandled records when the new AP installed start(c, k).
func (t *SpanTracker) MarkStartHandled(id uint32, atNS int64) {
	if t == nil {
		return
	}
	if sp := t.byID[id]; sp != nil && sp.StartHandledNS == 0 {
		sp.StartHandledNS = atNS
	}
}

// AddRetransmit counts one stop(c) retransmission after the 30 ms timeout.
func (t *SpanTracker) AddRetransmit(id uint32) {
	if t == nil {
		return
	}
	if sp := t.byID[id]; sp != nil {
		sp.Retransmits++
	}
}

// ObserveDrain records the old AP's hardware-queue drain: how many
// committed MPDUs were granted their final transmission and how long after
// the stop the last of them left. May arrive after End.
func (t *SpanTracker) ObserveDrain(id uint32, mpdus int, durNS int64) {
	if t == nil {
		return
	}
	if sp := t.byID[id]; sp != nil {
		sp.DrainMPDUs = mpdus
		sp.DrainNS = durNS
	}
}

// End closes an open span at atNS: completed at the ack's arrival, or cut
// short (cut) when its controller crashed mid-switch, after which no ack
// can complete it.
func (t *SpanTracker) End(id uint32, atNS int64, cut bool) {
	if t == nil {
		return
	}
	if sp := t.byID[id]; sp != nil && !sp.Completed && !sp.CutShort {
		sp.EndNS = atNS
		sp.Completed, sp.CutShort = !cut, cut
	}
}

// snapshot copies the spans in Begin order.
func (t *SpanTracker) snapshot() []SwitchSpan {
	out := make([]SwitchSpan, len(t.order))
	for i, sp := range t.order {
		out[i] = *sp
	}
	return out
}
