// Package trace provides the tcpdump-of-the-simulation: a line-oriented
// JSON event log of deliveries, transmissions, switches, and uplink
// arrivals. The paper's methodology (§5.1) logs packet flows at the
// controller and the client with tcpdump and post-processes them; this
// recorder plays the same role for simulated runs, producing a stream any
// external tool can analyze.
//
// trace is the per-event plane of the repo's observability story;
// internal/metrics is the aggregated plane (counters, histograms, and
// per-switch §3.1.2 spans). Use a trace when you need every packet in
// order, a metrics snapshot when you need rates, distributions, and the
// Table 1 switch-timing digest — they attach independently (`-trace` vs
// `-metrics` on the CLIs) and neither perturbs the simulation.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"wgtt/internal/sim"
)

// Kind classifies events.
type Kind string

// Event kinds.
const (
	// KindDeliver: an MPDU was acknowledged by the client (downlink
	// delivery confirmed at the AP).
	KindDeliver Kind = "deliver"
	// KindFrameTx: an AP put a data frame on the air.
	KindFrameTx Kind = "frame-tx"
	// KindSwitch: the controller completed a stop/start/ack handover.
	KindSwitch Kind = "switch"
	// KindUplink: a de-duplicated uplink packet reached the wired side.
	KindUplink Kind = "uplink"
)

// Event is one log line. Fields are flat for easy jq/awk processing.
type Event struct {
	AtNS     int64   `json:"at_ns"`
	Kind     Kind    `json:"kind"`
	Node     string  `json:"node,omitempty"`   // AP name or "controller"
	Client   string  `json:"client,omitempty"` // client MAC
	Bytes    int     `json:"bytes,omitempty"`
	Seq      uint32  `json:"seq,omitempty"`
	Index    uint16  `json:"index,omitempty"`
	FlowID   uint32  `json:"flow,omitempty"`
	RateMbps float64 `json:"rate_mbps,omitempty"`
	MPDUs    int     `json:"mpdus,omitempty"`
	FromAP   int     `json:"from_ap,omitempty"`
	ToAP     int     `json:"to_ap,omitempty"`
	DurNS    int64   `json:"dur_ns,omitempty"`
}

// Recorder writes events as JSON lines. Each simulated cell is still
// single-goroutine, but fleet deployments run many cells concurrently, so
// Log and Flush serialize internally: a Recorder may be shared across
// goroutines. Read N and Err only after the writers have quiesced (Flush
// establishes that point for a single writer).
type Recorder struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	// N counts recorded events.
	N int
	// Err holds the first write error; once set, logging stops.
	Err error
}

// NewRecorder wraps w.
func NewRecorder(w io.Writer) *Recorder {
	bw := bufio.NewWriter(w)
	return &Recorder{bw: bw, enc: json.NewEncoder(bw)}
}

// Log records one event.
func (r *Recorder) Log(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Err != nil {
		return
	}
	if err := r.enc.Encode(&ev); err != nil {
		r.Err = fmt.Errorf("trace: %w", err)
		return
	}
	r.N++
}

// Flush drains buffered output; call once the run ends.
func (r *Recorder) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Err != nil {
		return r.Err
	}
	return r.bw.Flush()
}

// At converts a sim time for an Event.
func At(t sim.Time) int64 { return int64(t) }
