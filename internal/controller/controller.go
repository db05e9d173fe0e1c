// Package controller implements the WGTT controller (§3): CSI ingest into
// the AP selector (internal/selector, which owns the per-(client, AP) ESNR
// windows and the §3.1.1 decision rule), the stop/start/ack switching
// state machine with its 30 ms retransmission timeout and
// single-outstanding-switch constraint, downlink fan-out into
// every nearby AP's cyclic queue, and uplink de-duplication keyed by
// (source IP, IP ID). The controller keeps the scheduling gates — one
// switch in flight per client, frozen while offered to a peer domain, the
// Fig. 22 hysteresis dwell — and delegates the what-AP question to its
// selector.Selector.
package controller

import (
	"errors"

	"wgtt/internal/backhaul"
	"wgtt/internal/csi"
	"wgtt/internal/metrics"
	"wgtt/internal/packet"
	"wgtt/internal/selector"
	"wgtt/internal/sim"
)

// Config parameterizes the controller.
type Config struct {
	// Params is the §3.1.1 rule's Window, MedianMarginDB, MinSamples and
	// MinSwitchESNRdB, handed to the selector unchanged.
	selector.Params
	// Hysteresis is the minimum dwell time between switches of one client
	// (Fig. 22 sweeps 40–120 ms).
	Hysteresis sim.Time
	// FanoutWindow bounds how recently an AP must have heard the client to
	// receive copies of its downlink packets (the paper fans out to APs
	// heard within the selection window; a slightly longer horizon is used
	// here so momentary uplink silence does not empty the set).
	FanoutWindow sim.Time
	// CollapseDB, when > 0, lets a switch bypass the hysteresis dwell if
	// the challenger's figure beats the incumbent's by at least this much.
	// The Fig. 22 dwell assumes links decay gently; an urban corner turn
	// (DESIGN.md §16) drops the serving link tens of dB in under a second,
	// and holding the dwell there is pure outage. 0 — the default — keeps
	// the dwell absolute, byte-identical to the pre-§16 controller.
	CollapseDB float64

	// health switches on the AP health monitor (WithHealth): every
	// HealthInterval the controller scans for APs it has not heard from (no
	// CSI, uplink, acks — the traffic an alive AP emits anyway) and probes
	// the quiet ones. Off is the paper's original APs-never-fail operating
	// point (DESIGN.md §11).
	health bool

	// Addr is the controller's own backhaul address. Zero means
	// packet.ControllerIP — the single-controller deployment. A federation
	// tier (DESIGN.md §13) runs several controllers on one backhaul, each
	// attached at its own packet.DomainControllerIP(d).
	Addr packet.IPv4Addr
	// SwitchIDBase offsets the switch/recovery ID sequences. Controllers
	// sharing a backhaul and a metrics registry must not mint colliding IDs:
	// switch spans are keyed by ID, and APs correlate stop/start/ack by it.
	SwitchIDBase uint32
}

// The health monitor's pace. An AP silent for DetectTimeout — ignoring
// probes included — is marked dead, excluded from selection and fan-out,
// and its clients are force-switched away. The detection timeout trades
// outage length against false positives: it must comfortably exceed the
// probe round trip (two backhaul hops, sub-millisecond) and ride out CSI
// gaps, while every extra millisecond is client outage when an AP really
// dies. 100 ms ≈ 4 probe intervals of slack (DESIGN.md §11).
const (
	HealthInterval = 25 * sim.Millisecond
	DetectTimeout  = 100 * sim.Millisecond
)

// dedupCapacity bounds each client's uplink de-duplication hashset.
const dedupCapacity = 4096

// WithHealth returns the config with the AP health monitor enabled.
func (c Config) WithHealth() Config {
	c.health = true
	return c
}

// DefaultConfig returns the paper's operating point.
func DefaultConfig() Config {
	return Config{
		Params: selector.Params{
			Window:          10 * sim.Millisecond,
			MedianMarginDB:  0,
			MinSamples:      2,
			MinSwitchESNRdB: -5,
		},
		Hysteresis:   40 * sim.Millisecond,
		FanoutWindow: 100 * sim.Millisecond,
	}
}

// switchTimeout is the §3.1.2 stop-packet retransmission timeout.
const switchTimeout = 30 * sim.Millisecond

// pullStopBudget bounds the stops a pull (PullFrom) sends toward the peer
// controller's AP before the switch is forced: that AP's health is the
// peer's to monitor, so silence through the budget is all this controller
// will ever learn of its death (DESIGN.md §13).
const pullStopBudget = 8

// APInfo describes one AP the controller commands. ID is the AP's
// network-wide id — its index in the city table (federation.City) and in
// core.Network.APs — and the only AP id the controller emits (SwitchRecord,
// History, spans, ServingAP) or accepts (RegisterClient, AdoptClient,
// SeedESNR, MedianESNR). Internally the controller indexes its own state by
// the AP's position in the table it was built with.
type APInfo struct {
	ID  int
	IP  packet.IPv4Addr
	MAC packet.MACAddr
}

// SwitchRecord is one completed handover, for the evaluation timeline.
type SwitchRecord struct {
	At       sim.Time // when the ack arrived
	Client   packet.MACAddr
	From, To int
	Duration sim.Time // stop sent → ack received (Table 1's execution time)
	Attempts int      // stop transmissions needed
	// Forced marks a failover switch: the from-AP was dead, so the
	// stop→start handshake was bypassed with a direct start (DESIGN.md §11).
	Forced bool
}

// Stats aggregates controller counters. These conservation laws hold at
// every instant, and Conserved checks them:
//
//	switches: SwitchesStarted = SwitchesDone + SwitchesCut + own ops in flight
//	          PullsStarted = pulls completed (the puller's ledger) + PullsCut + pulls in flight
//	uplink:   UplinkCopies = UplinkUnique + UplinkDuplicate + CtlUplinkDropped (§3.2.2)
//	CSI:      CSICopies = CSIReports + CSIIgnored + CtlCSIDropped
type Stats struct {
	CSIReports      uint64 `metric:"csi_reports"`      // CSI reports booked into the selector
	SwitchesStarted uint64 `metric:"switches_started"` // switches started on this controller's ledger
	SwitchesDone    uint64 `metric:"switches_done"`
	StopRetransmits uint64 `metric:"stop_retransmits"`
	UplinkUnique    uint64
	UplinkDuplicate uint64 `metric:"dedup/hits"`
	// One encode per packet entering the fan-out, one copy per AP replica:
	// their ratio is the replication factor the encode-once path amortizes.
	DownlinkSent   uint64 `metric:"fanout/downlink_encodes"`
	DownlinkCopies uint64 `metric:"fanout/downlink_copies"`
	// DedupMisses counts first-seen uplink packets of registered clients —
	// the §3.2.2 hashset's misses (its hits are UplinkDuplicate).
	// UplinkUnique also counts packets from senders the controller does not
	// know, which bypass the hashset.
	DedupMisses uint64 `metric:"dedup/misses"`

	// SwitchesCut counts switches that ended without an ack: dropped by a
	// Crash, ReleaseClient or a failover that found no live AP, or
	// abandoned for a fresh failover op. PullsStarted and PullsCut count
	// the same for pulls (PullFrom), whose completions land on the
	// puller's ledger instead of SwitchesDone.
	SwitchesCut  uint64
	PullsStarted uint64
	PullsCut     uint64
	// UplinkCopies counts every tunneled uplink copy that reached the
	// controller, CSICopies every CSI report; CSIIgnored the reports of a
	// client or AP it does not know. CtlUplinkDropped and CtlCSIDropped
	// count what a crashed controller lost of each.
	UplinkCopies     uint64
	CSICopies        uint64
	CSIIgnored       uint64
	CtlUplinkDropped uint64
	CtlCSIDropped    uint64

	// Selection counters (DESIGN.md §15). SelectionDecisions counts
	// evaluations that reached the selector (past the op/frozen/hysteresis
	// gates).
	SelectionDecisions uint64 `metric:"selection_decisions"`
	// SelectionFlips counts evaluations whose argmax AP differed from the
	// previous evaluation's — raw selection churn, before hysteresis;
	// HysteresisSuppressions counts re-evaluations skipped inside the dwell.
	SelectionFlips         uint64 `metric:"selection_flips"`
	HysteresisSuppressions uint64 `metric:"hysteresis_suppressions"`
	// CollapseSwitches counts switches that bypassed the hysteresis dwell
	// through the CollapseDB escape (serving link collapsed mid-dwell).
	CollapseSwitches uint64 `metric:"collapse_switches"`

	// AP health monitor & failure recovery (DESIGN.md §11).
	HealthProbes           uint64 `metric:"health_probes"`            // probes sent to quiet APs
	APsMarkedDead          uint64 `metric:"aps_marked_dead"`          // detection events
	APsReadmitted          uint64 `metric:"aps_readmitted"`           // dead APs heard again
	ForcedSwitches         uint64 `metric:"forced_switches"`          // failover switches (direct start)
	ForcedStartRetransmits uint64 `metric:"forced_start_retransmits"` // direct starts re-sent on timeout
}

// ctlMetrics holds the controller's live instruments (DESIGN.md §10) —
// what a Stats field cannot express. All fields are nil until UseMetrics
// wires a registry; every instrument is nil-safe, so the unwired state is
// the disabled state.
type ctlMetrics struct {
	// windowOcc samples the (client, AP) window size at each ingest — the
	// occupancy behind every §3.1.1 median the selection rule compares.
	windowOcc *metrics.Histogram
	// dedupSize is the §3.2.2 uplink de-duplication hashset's occupancy.
	dedupSize *metrics.Gauge
	spans     *metrics.SpanTracker

	// Downlink fan-out data plane (DESIGN.md §14). fanoutSetSize samples
	// the count of APs that heard the client within FanoutWindow at each
	// emission, fanoutDepth the targets handed to the fabric's SendMany per
	// packet.
	fanoutSetSize *metrics.Gauge
	fanoutDepth   *metrics.Histogram

	// recoverySpans traces detect → reselect → first ack per AP-death
	// incident (DESIGN.md §11).
	recoverySpans *metrics.SpanTracker
}

// UseMetrics names the controller's counters — the tagged Stats fields — in r and
// wires its live instruments (call before the run starts). A nil registry
// leaves recording disabled.
func (c *Controller) UseMetrics(r *metrics.Registry) {
	r.Counters("controller", &c.Stats)
	c.met = ctlMetrics{
		windowOcc:     r.Histogram("controller", "window_occupancy", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
		dedupSize:     r.Gauge("dedup", "size"),
		spans:         r.SwitchSpans(),
		fanoutSetSize: r.Gauge("fanout", "fanout_set_size"),
		fanoutDepth:   r.Histogram("fanout", "batch_depth", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
		recoverySpans: r.RecoverySpans(),
	}
}

// switchOp is the single in-flight handover of one client.
type switchOp struct {
	id uint32
	// old is the AP the client leaves, where stop(c) goes: the serving AP,
	// or for a pull the peer controller's AP (ID −1 and a zero IP when
	// nobody can name it). to is the target's position in c.aps.
	old      APInfo
	to       int
	sentAt   sim.Time
	attempts int
	timer    sim.Timer
	// forced marks an op driven by direct starts instead of the stop→start
	// handshake (the old AP is dead, or silent, and would never answer).
	forced bool
	// done, set only on a pull (PullFrom) and the failover op that
	// replaces one, receives the completed switch in place of this
	// controller's own ledger (Stats, History, OnSwitch, the dwell clock).
	done func(SwitchRecord)
	// recoveryID links the op to the recovery span of the AP-death
	// incident that forced it (0 when not a failover).
	recoveryID uint32
}

// clientCtl is per-client controller state.
type clientCtl struct {
	mac packet.MACAddr
	ip  packet.IPv4Addr

	// lastHeard/heardEver are the fan-out recency evidence (fanout.go)
	// and the failover fallback tiers (health.go); the selection-grade
	// ESNR windows live in the selector. They, serving and the selector's
	// windows are indexed by position in c.aps.
	lastHeard []sim.Time
	heardEver []bool

	serving    int
	lastSwitch sim.Time
	op         *switchOp

	// frozen holds the selection rule off this client while the federation
	// layer has a handoff offer for it outstanding: a client about to be
	// released must not start a switch (DESIGN.md §13).
	frozen bool

	nextIndex uint16

	dedup     map[packet.DedupKey]struct{}
	dedupFIFO []packet.DedupKey

	// UplinkHeard/UplinkDup per-client counters (Fig. 18 analysis).
	UplinkUnique, UplinkDuplicate uint64
}

// Controller is the WGTT controller. All timing goes through one
// sim.Engine (virtual in simulation, paced by runtime.Wall in live mode)
// and all messaging through a backhaul.Fabric (DESIGN.md §12).
type Controller struct {
	cfg  Config
	eng  *sim.Engine
	bh   backhaul.Fabric
	aps  []APInfo
	addr packet.IPv4Addr

	// sel is the §3.1.1 AP selector (DESIGN.md §15); aliveFn is the
	// health monitor's verdict bound once at construction so the per-CSI
	// Decide call stays allocation-free.
	sel     *selector.Selector
	aliveFn func(int) bool

	clients map[packet.MACAddr]*clientCtl
	// clientOrder lists clients in registration order. Every whole-fleet
	// sweep (marking an AP dead, failing over, restarting) iterates this
	// slice, never the map: map order is randomized per process and would
	// break run-to-run determinism.
	clientOrder []packet.MACAddr

	// health is per-AP liveness state, indexed like aps; nil while the
	// monitor is disabled (the chaos-free default — zero behavior change).
	health []apHealth
	ipToAP map[packet.IPv4Addr]int
	// down is true while a chaos-injected controller crash holds it off
	// the backhaul (DESIGN.md §11).
	down        bool
	probeSeq    uint32
	recoverySeq uint32

	// DeliverUplink receives each de-duplicated uplink packet (the "strip
	// tunnel header and forward to the Internet" hop).
	DeliverUplink func(p *packet.Packet, at sim.Time)

	// OnSwitch, if set, observes every completed switch.
	OnSwitch func(rec SwitchRecord)

	switchSeq uint32

	// snrScratch is the reusable unpack buffer for incoming CSI reports;
	// the controller runs on the single simulation goroutine, so one
	// buffer serves every report.
	snrScratch []float64

	// targetScratch and downScratch are SendDownlink's reusable fan-out
	// target list and DownData envelope: the fabric's fan-out fast path
	// never retains either (fanout.go, DESIGN.md §14).
	targetScratch []packet.IPv4Addr
	downScratch   packet.DownData

	// met holds the observability instruments; dedupEntries tracks the
	// total dedup-hashset occupancy across clients for the size gauge.
	met          ctlMetrics
	dedupEntries int

	Stats   Stats
	History []SwitchRecord
}

// New creates a controller commanding the given APs and attaches it to the
// backhaul at cfg.Addr (packet.ControllerIP when unset).
func New(cfg Config, eng *sim.Engine, bh backhaul.Fabric, aps []APInfo) *Controller {
	if cfg.Addr.IsZero() {
		cfg.Addr = packet.ControllerIP
	}
	c := &Controller{
		cfg:         cfg,
		eng:         eng,
		bh:          bh,
		aps:         aps,
		addr:        cfg.Addr,
		switchSeq:   cfg.SwitchIDBase,
		recoverySeq: cfg.SwitchIDBase,
		clients:     make(map[packet.MACAddr]*clientCtl),
		ipToAP:      make(map[packet.IPv4Addr]int, len(aps)),
	}
	for i, a := range aps {
		c.ipToAP[a.IP] = i
	}
	c.sel = selector.New(selector.Config{}, cfg.Params, len(aps))
	c.aliveFn = c.apAlive
	if cfg.health {
		c.health = make([]apHealth, len(aps))
		for i := range c.health {
			c.health[i].alive = true
		}
		eng.After(HealthInterval, c.healthTick)
	}
	bh.Attach(c.addr, c)
	return c
}

// RegisterClient installs a client with its initial serving AP (the AP it
// completed 802.11 association with; §4.3 replicates that state everywhere).
// A serving AP this controller does not command installs nothing.
func (c *Controller) RegisterClient(mac packet.MACAddr, ip packet.IPv4Addr, servingAP int) {
	s := c.slot(servingAP)
	if s < 0 {
		return
	}
	c.clients[mac] = c.newClient(mac, ip, s)
	c.clientOrder = append(c.clientOrder, mac)
}

// newClient builds a client's state at serving-AP position s with nothing
// learned yet, and installs (or replaces) the selector's — the one
// constructor, so a field added to clientCtl is cold after a Restart unless
// Restart carries it over.
func (c *Controller) newClient(mac packet.MACAddr, ip packet.IPv4Addr, s int) *clientCtl {
	c.sel.AddClient(mac, s)
	return &clientCtl{
		mac:       mac,
		ip:        ip,
		lastHeard: make([]sim.Time, len(c.aps)),
		heardEver: make([]bool, len(c.aps)),
		serving:   s,
		// Grown by the uplink that arrives (handleUplink's FIFO holds it to
		// dedupCapacity): a downlink-only client never touches it.
		dedup: make(map[packet.DedupKey]struct{}),
	}
}

// slot returns the position in c.aps of the AP with network-wide id, or
// -1 for an AP this controller does not command.
func (c *Controller) slot(id int) int {
	for i, a := range c.aps {
		if a.ID == id {
			return i
		}
	}
	return -1
}

// ServingAP returns the AP currently serving the client (-1 if unknown).
func (c *Controller) ServingAP(mac packet.MACAddr) int {
	cl := c.clients[mac]
	if cl == nil {
		return -1
	}
	return c.aps[cl.serving].ID
}

// MedianESNR exposes the current windowed median for (client, AP) — the
// quantity the selection rule compares (evaluation hook, and the
// federation tier's evidence export).
func (c *Controller) MedianESNR(mac packet.MACAddr, apID int) (float64, bool) {
	return c.sel.Median(mac, c.slot(apID), c.eng.Now())
}

// BestMedianESNR returns the highest windowed median any of this
// controller's APs holds for the client, and false when none holds one —
// the local side of the federation tier's handoff rule.
func (c *Controller) BestMedianESNR(mac packet.MACAddr) (float64, bool) {
	now := c.eng.Now()
	best, ok := 0.0, false
	for s := range c.aps {
		if med, have := c.sel.Median(mac, s, now); have && (!ok || med > best) {
			best, ok = med, true
		}
	}
	return best, ok
}

// HandleBackhaul implements backhaul.Node.
func (c *Controller) HandleBackhaul(from packet.IPv4Addr, msg packet.Message) {
	if c.down {
		// A crashed controller hears nothing (DESIGN.md §11); it counts the
		// reports it lost.
		switch msg.(type) {
		case *packet.CSIReport:
			c.Stats.CSICopies++
			c.Stats.CtlCSIDropped++
		case *packet.UpData:
			c.Stats.UplinkCopies++
			c.Stats.CtlUplinkDropped++
		}
		return
	}
	// Any backhaul traffic from an AP proves it alive — CSI, uplink, acks;
	// explicit probe acks only matter for APs with nothing else to say.
	c.noteAPAlive(from)
	switch m := msg.(type) {
	case *packet.CSIReport:
		c.handleCSI(m)
	case *packet.UpData:
		c.handleUplink(m)
	case *packet.SwitchAck:
		c.handleSwitchAck(m)
	case *packet.HealthAck:
		// noteAPAlive above did the work; nothing else to record.
	}
}

// handleCSI folds a report into the client's per-AP window and re-evaluates
// AP selection.
func (c *Controller) handleCSI(m *packet.CSIReport) {
	c.Stats.CSICopies++
	cl := c.clients[m.Client]
	apID, known := c.ipToAP[m.AP]
	if cl == nil || !known {
		// An unknown client, or a foreign or mistyped AP address (the UDP
		// fabric can deliver one): dropped, not booked as evidence for
		// some AP of ours.
		c.Stats.CSIIgnored++
		return
	}
	c.Stats.CSIReports++
	c.snrScratch = m.SNRdBInto(c.snrScratch)
	esnr := csi.ESNRdB(c.snrScratch, csi.DefaultESNRModulation)
	at := sim.Time(m.At)
	if now := c.eng.Now(); at > now || at < now-c.cfg.Window {
		at = now
	}
	occ := c.sel.Observe(cl.mac, apID, esnr, at)
	c.met.windowOcc.Observe(float64(occ))
	cl.fanHeard(apID, c.eng.Now())
	c.evaluate(cl)
}

// evaluate runs the §3.1.1 selection rule and §3.1.2 switching protocol. The
// scheduling gates — one outstanding switch, frozen while offered to a peer
// domain, the Fig. 22 hysteresis dwell — stay here; what the ESNR
// evidence says is the selector's question (DESIGN.md §15).
func (c *Controller) evaluate(cl *clientCtl) {
	if cl.op != nil {
		return // one outstanding switch at a time
	}
	if cl.frozen {
		return // offered to a peer domain: no switch until that resolves
	}
	now := c.eng.Now()
	dwell := now-cl.lastSwitch < c.cfg.Hysteresis
	if dwell && c.cfg.CollapseDB <= 0 {
		// Dwell-time suppression: the selection rule would have re-run
		// here but the Fig. 22 hysteresis holds the serving AP.
		c.Stats.HysteresisSuppressions++
		return
	}
	c.Stats.SelectionDecisions++
	d := c.sel.Decide(cl.mac, cl.serving, now, c.aliveFn)
	if d.Flip {
		c.Stats.SelectionFlips++
	}
	if d.Target < 0 || d.Target == cl.serving {
		return
	}
	if dwell {
		// Inside the dwell, only the CollapseDB escape may switch: the
		// challenger must beat the incumbent by a collapse-scale gap.
		if d.ToMetric-d.FromMetric < c.cfg.CollapseDB {
			c.Stats.HysteresisSuppressions++
			return
		}
		c.Stats.CollapseSwitches++
	}
	c.initiateSwitch(cl, d)
}

// initiateSwitch sends stop(c) to the serving AP and arms the timeout.
// The decision's from/to medians are recorded on the span.
func (c *Controller) initiateSwitch(cl *clientCtl, d selector.Decision) {
	if !c.apAlive(cl.serving) {
		// A stop to a dead AP would only feed the retransmission loop;
		// recover via the direct-start failover path instead.
		c.forceSwitch(cl, 0)
		return
	}
	c.switchSeq++
	op := &switchOp{id: c.switchSeq, old: c.aps[cl.serving], to: d.Target, sentAt: c.eng.Now()}
	cl.op = op
	c.Stats.SwitchesStarted++
	if c.met.spans != nil {
		c.met.spans.Begin(op.id, int64(op.sentAt), cl.mac.String(),
			op.old.ID, c.aps[op.to].ID, metrics.CauseMedianArgmax, d.FromMetric, d.ToMetric)
	}
	c.transmit(cl, op)
}

// PullFrom drives the §3.1.2 handshake that physically moves a just-adopted
// client (AdoptClient) onto its serving AP here: stop(c) goes to oldAP, an
// AP of the peer controller the client came from, whose start(c, k) hands
// the cursor to our AP. An old AP that stays silent through pullStopBudget
// stops, or one with a zero IP, is forced like a dead one. id is the switch
// ID (the handoff's, so spans and APs correlate); done receives the
// completed switch, From = oldAP.ID, which stays off this controller's own
// ledger.
func (c *Controller) PullFrom(mac packet.MACAddr, oldAP APInfo, id uint32, done func(SwitchRecord)) {
	cl := c.clients[mac]
	if cl == nil || cl.op != nil {
		return
	}
	cl.op = &switchOp{id: id, old: oldAP, to: cl.serving, sentAt: c.eng.Now(), done: done}
	c.Stats.PullsStarted++
	c.transmit(cl, cl.op)
}

// transmit is the one §3.1.2 driver: it sends the op's next message —
// stop(c) to the old AP while the op is cooperative, start(c, k) straight to
// the target once forced — and re-arms the 30 ms timeout that sends it again.
// A forced start carries k = the controller's own next index: the old AP's
// cursor is unknowable (that is the no-ack case), so the stream resumes at
// its head and cedes the old AP's unsent backlog to transport retransmission.
func (c *Controller) transmit(cl *clientCtl, op *switchOp) {
	if op.done != nil && (op.old.IP.IsZero() || op.attempts >= pullStopBudget) {
		op.forced = true
	}
	op.attempts++
	if op.forced {
		start := &packet.Start{Client: cl.mac, Index: cl.nextIndex, SwitchID: op.id}
		_ = c.bh.Send(c.addr, c.aps[op.to].IP, start)
	} else {
		stop := &packet.Stop{Client: cl.mac, NextAP: c.aps[op.to].IP, SwitchID: op.id}
		_ = c.bh.Send(c.addr, op.old.IP, stop)
	}
	op.timer = c.eng.After(switchTimeout, func() {
		if cl.op != op {
			return
		}
		c.met.spans.AddRetransmit(op.id)
		if !op.forced {
			c.Stats.StopRetransmits++
		} else {
			c.Stats.ForcedStartRetransmits++
			if !c.apAlive(op.to) {
				// The target died too: retarget from scratch.
				c.forceSwitch(cl, op.recoveryID)
				return
			}
		}
		c.transmit(cl, op)
	})
}

// handleSwitchAck completes the in-flight switch. The ack must come from the
// op's target AP, the one AP whose start handling it can report.
func (c *Controller) handleSwitchAck(m *packet.SwitchAck) {
	cl := c.clients[m.Client]
	if cl == nil || cl.op == nil || cl.op.id != m.SwitchID || m.AP != c.aps[cl.op.to].IP {
		return
	}
	op := cl.op
	op.timer.Stop()
	cl.op = nil
	cl.serving = op.to
	now := c.eng.Now()
	rec := SwitchRecord{
		At:       now,
		Client:   cl.mac,
		From:     op.old.ID,
		To:       c.aps[op.to].ID,
		Duration: now - op.sentAt,
		Attempts: op.attempts,
		Forced:   op.forced,
	}
	c.met.spans.End(op.id, int64(now), false)
	if op.recoveryID != 0 {
		// First rescued client's ack closes the incident's recovery span.
		c.met.recoverySpans.End(op.recoveryID, int64(now), false)
	}
	if op.done != nil {
		// A pulled client is already booked on its target AP and its dwell
		// started at adoption; the switch is the puller's to record.
		op.done(rec)
		return
	}
	cl.lastSwitch = now
	c.Stats.SwitchesDone++
	c.History = append(c.History, rec)
	if c.OnSwitch != nil {
		c.OnSwitch(rec)
	}
}

// handleUplink de-duplicates and forwards one tunneled uplink packet.
func (c *Controller) handleUplink(m *packet.UpData) {
	c.Stats.UplinkCopies++
	p := m.Pkt
	cl := c.clients[p.ClientMAC]
	key := packet.KeyOf(p)
	if cl != nil {
		if _, dup := cl.dedup[key]; dup {
			cl.UplinkDuplicate++
			c.Stats.UplinkDuplicate++
			return
		}
		cl.dedup[key] = struct{}{}
		c.dedupEntries++
		cl.dedupFIFO = append(cl.dedupFIFO, key)
		if len(cl.dedupFIFO) > dedupCapacity {
			old := cl.dedupFIFO[0]
			cl.dedupFIFO = cl.dedupFIFO[1:]
			delete(cl.dedup, old)
			c.dedupEntries--
		}
		cl.UplinkUnique++
		c.Stats.DedupMisses++
		c.met.dedupSize.Set(float64(c.dedupEntries))
	}
	c.Stats.UplinkUnique++
	if c.DeliverUplink != nil {
		c.DeliverUplink(p, c.eng.Now())
	}
}

// cut ends cl's in-flight op without an ack, on the ledger it started on.
func (c *Controller) cut(cl *clientCtl) {
	op := cl.op
	op.timer.Stop()
	cl.op = nil
	if op.done != nil {
		c.Stats.PullsCut++
	} else {
		c.Stats.SwitchesCut++
	}
}

// Conserved checks the laws of Stats against the ops in flight; pullsDone
// is the number of pulls the puller's ledger recorded (0 without one).
func (c *Controller) Conserved(pullsDone uint64) error {
	var own, pulls uint64
	for _, cl := range c.clients {
		if op := cl.op; op != nil && op.done != nil {
			pulls++
		} else if op != nil {
			own++
		}
	}
	st := &c.Stats
	return errors.Join(
		metrics.Conserved("controller", "switches: started = done + cut + in flight",
			st.SwitchesStarted, st.SwitchesDone+st.SwitchesCut+own),
		metrics.Conserved("controller", "pulls: started = done + cut + in flight",
			st.PullsStarted, pullsDone+st.PullsCut+pulls),
		metrics.Conserved("controller", "uplink: copies = unique + duplicate + dropped while down",
			st.UplinkCopies, st.UplinkUnique+st.UplinkDuplicate+st.CtlUplinkDropped),
		metrics.Conserved("controller", "CSI: copies = booked + ignored + dropped while down",
			st.CSICopies, st.CSIReports+st.CSIIgnored+st.CtlCSIDropped))
}

// ClientUplinkCounts returns (unique, duplicate) uplink packet counts for a
// client.
func (c *Controller) ClientUplinkCounts(mac packet.MACAddr) (unique, dup uint64) {
	cl := c.clients[mac]
	if cl == nil {
		return 0, 0
	}
	return cl.UplinkUnique, cl.UplinkDuplicate
}
