// Package ap implements the WGTT access point (§3, §4.2): the per-client
// cyclic downlink queue indexed by the controller's 12-bit packet index, the
// stop/start switching hooks that let the controller quench this AP and hand
// its backlog position to a neighbour, monitor-mode Block ACK forwarding,
// uplink tunneling with per-frame CSI reports, and the replicated per-client
// association state of §4.3.
//
// The queueing pipeline mirrors the paper's Fig. 7: tunneled packets land in
// the client's cyclic queue; MPDUs are pulled into an A-MPDU only at the
// moment the medium is won (so a stop that arrives while contending removes
// them before they reach the air); unacknowledged MPDUs wait in a retry
// queue that a stop flushes, exactly like the driver-queue filtering the
// paper adds to ieee80211_ops_tx().
package ap

import (
	"math/rand/v2"

	"wgtt/internal/backhaul"
	"wgtt/internal/mac"
	"wgtt/internal/metrics"
	"wgtt/internal/packet"
	"wgtt/internal/sim"
)

// Config parameterizes one AP.
type Config struct {
	ID    int
	Name  string // radio endpoint name ("ap1"…)
	IP    packet.IPv4Addr
	MAC   packet.MACAddr
	BSSID packet.MACAddr

	// BAForwarding enables §3.2.1 monitor-mode Block ACK forwarding.
	BAForwarding bool
	// ForwardOnlyWhenServing restricts uplink tunneling to the serving AP —
	// the ablation of WGTT's multi-AP uplink diversity (Fig. 18's benefit).
	ForwardOnlyWhenServing bool
}

// DefaultConfig returns the testbed AP configuration.
func DefaultConfig(id int, bssid packet.MACAddr) Config {
	return Config{
		ID:           id,
		Name:         packet.APName(id),
		IP:           packet.APIP(id),
		MAC:          packet.APMAC(id),
		BSSID:        bssid,
		BAForwarding: true,
	}
}

// cyclicQueueSlots is the per-client ring size: one slot per 12-bit packet
// index, the paper's 4096-entry design point (§3.1.3).
const cyclicQueueSlots = 1 << packet.IndexBits

// Stats counts AP-side events for the evaluation harness.
type Stats struct {
	DownEnqueued    uint64 // packets accepted into cyclic queues
	DownOverwritten uint64 // unsent packets the serving AP lost to overload, once each
	DownTrimmed     uint64 // unsent packets a non-serving AP trimmed off its backlog
	MPDUsDelivered  uint64 // MPDUs acknowledged by the client
	MPDUsDropped    uint64 // MPDUs dropped at the retry limit
	MPDUsFlushed    uint64 // retry MPDUs flushed by a stop
	StopsHandled    uint64
	StartsHandled   uint64
	StartRewinds    uint64 // starts that moved nextSend backward
	RewindDepth     uint64 // cumulative backward distance
	BAForwarded     uint64 // Block ACKs forwarded to peers
	BAMerged        uint64 // forwarded Block ACKs merged into retry state
	BADuplicates    uint64 // forwarded Block ACKs discarded as already seen
	UplinkForwarded uint64 // uplink packets tunneled to the controller
	KeepalivesHeard uint64 // null-data CSI keepalives heard (§3.1.1)
	CSIReports      uint64
	ProbesAnswered  uint64 // controller health probes acknowledged
}

// clientState is everything this AP tracks for one mobile client.
type clientState struct {
	mac  packet.MACAddr
	ip   packet.IPv4Addr
	ring []*packet.Packet // cyclic queue, slot = index % slots
	// nextSend is the index of the first unsent packet — the k that a
	// stop(c) queries and a start(c, k) installs.
	nextSend uint16
	// head is one past the newest index the controller has enqueued here.
	// It bounds transmission: because the 12-bit index equals the ring
	// slot modulo the ring size, slot contents alone cannot distinguish
	// "fresh packet" from "stale entry from a previous lap".
	head uint16
	// haveAny reports whether any packet was ever enqueued (so an AP that
	// never heard from the controller doesn't transmit garbage).
	haveAny bool
	// serving is true while this AP is the one transmitting to the client.
	serving bool
	// retryQ holds sent-but-unacknowledged MPDUs awaiting retransmission.
	retryQ []*mac.MPDU
	// drainQ holds MPDUs the NIC hardware queue is allowed to finish
	// sending after a stop (§3.1.2 lets AP1 drain ~6 ms of hardware-queued
	// frames over its inferior link rather than discard them).
	drainQ []*mac.MPDU
	// lastEnqueue is when the controller last fanned a packet here.
	lastEnqueue sim.Time
	// seenBA de-duplicates Block ACK state (own NIC or forwarded), keyed by
	// (ssn, bitmap) — the §3.2.1 "received before" check.
	seenBA map[uint64]bool

	// drainPending/drainSwitchID/drainStart/drainCount track the
	// hardware-queue drain a stop(c) left behind, so the switch span can
	// record how long the old AP kept transmitting committed MPDUs.
	drainPending  bool
	drainSwitchID uint32
	drainStart    sim.Time
	drainCount    int
}

// staleRingAfter is how long a client's ring may sit idle before its
// cursors are considered stale and resynchronized on the next enqueue.
const staleRingAfter = sim.Second

// AP is one WGTT access point. Like the controller it schedules on one
// sim.Engine, virtual or wall-paced, and is transport-agnostic (DESIGN.md
// §12); st is nil in live mode, where no simulated radio exists and CSI
// arrives from an external source.
type AP struct {
	cfg Config
	eng *sim.Engine
	bh  backhaul.Fabric
	st  *mac.Station
	rnd *rand.Rand

	controller packet.IPv4Addr
	peers      []packet.IPv4Addr // other APs (for start + BA forwarding)

	clients map[packet.MACAddr]*clientState
	rr      []packet.MACAddr // round-robin order over serving clients

	// down is true while a chaos-injected crash holds the AP off the air
	// and off the backhaul (DESIGN.md §11).
	down bool

	// out holds the messages the MAC side sends per frame heard. A Fabric
	// never retains a message, so one of each serves every send.
	out *sendScratch

	Stats Stats

	// OnDeliver, if set, observes every MPDU acknowledged by a client
	// (evaluation hook).
	OnDeliver func(p *packet.Packet, at sim.Time)
	// OnFrameTx, if set, observes every data frame this AP puts on the air
	// (evaluation hook for link bit-rate distributions, Figs. 15–16).
	OnFrameTx func(rateMbps float64, mpdus int, at sim.Time)

	met apMetrics
}

// sendScratch is the envelope of each per-frame send: the CSI report, the
// uplink tunnel and the forwarded Block ACK.
type sendScratch struct {
	csi packet.CSIReport
	up  packet.UpData
	ba  packet.BlockAckFwd
}

// apMetrics holds this AP's live instruments (DESIGN.md §10) — what a
// Stats field cannot express. Nil until UseMetrics wires a registry; nil
// instruments record nothing.
type apMetrics struct {
	// queueDepth samples the cyclic-queue backlog (unsent indices between
	// the read cursor and the write head) after each enqueue.
	queueDepth *metrics.Histogram
	spans      *metrics.SpanTracker
}

// UseMetrics names the AP's counters — the Stats fields — in r under the
// AP's name and wires its live instruments (call before the run starts). A
// nil registry leaves recording disabled.
func (a *AP) UseMetrics(r *metrics.Registry) {
	comp, st := a.cfg.Name, &a.Stats
	r.CounterAt(comp, "down_enqueued", &st.DownEnqueued)
	r.CounterAt(comp, "ring_overwrites", &st.DownOverwritten)
	r.CounterAt(comp, "ring_trimmed", &st.DownTrimmed)
	r.CounterAt(comp, "ba_forwarded", &st.BAForwarded)
	r.CounterAt(comp, "ba_merged", &st.BAMerged)
	r.CounterAt(comp, "keepalives_heard", &st.KeepalivesHeard)
	r.CounterAt(comp, "csi_reports", &st.CSIReports)
	r.CounterAt(comp, "stops_handled", &st.StopsHandled)
	r.CounterAt(comp, "starts_handled", &st.StartsHandled)
	a.met = apMetrics{
		queueDepth: r.Histogram(comp, "queue_depth", []float64{0, 4, 16, 64, 256, 1024, 4096}),
		spans:      r.SwitchSpans(),
	}
}

// New creates an AP, wiring it to the backhaul and its MAC station. The
// station must have been created with the AP's radio endpoint; the AP
// installs itself as the station's Sink and Source. In live mode st may be
// nil — the AP then runs queue and protocol state only, with no radio.
func New(cfg Config, eng *sim.Engine, bh backhaul.Fabric, st *mac.Station, controller packet.IPv4Addr, rnd *rand.Rand) *AP {
	a := &AP{
		cfg:        cfg,
		eng:        eng,
		bh:         bh,
		st:         st,
		rnd:        rnd,
		controller: controller,
		clients:    make(map[packet.MACAddr]*clientState),
	}
	if st != nil {
		st.SetSink(a)
		st.SetSource(a)
	}
	bh.Attach(cfg.IP, a)
	return a
}

// kick nudges the MAC station to contend for the medium; a no-op without a
// radio (live mode).
func (a *AP) kick() {
	if a.st != nil {
		a.st.Kick()
	}
}

// Config returns the AP's configuration.
func (a *AP) Config() Config { return a.cfg }

// Station returns the AP's MAC station.
func (a *AP) Station() *mac.Station { return a.st }

// SetPeers installs the backhaul addresses of the other APs.
func (a *AP) SetPeers(peers []packet.IPv4Addr) { a.peers = peers }

// QueueDepth returns the number of buffered-but-unsent packets for a client
// (cyclic queue occupancy from nextSend to the write head) plus pending
// retries — the backlog a switch must deal with.
func (a *AP) QueueDepth(client packet.MACAddr) int {
	cs := a.clients[client]
	if cs == nil {
		return 0
	}
	n := len(cs.retryQ) + len(cs.drainQ)
	if cs.backlog() {
		n += int(packet.IndexDist(cs.nextSend, cs.head))
	}
	return n
}

func (a *AP) client(m packet.MACAddr) *clientState {
	cs, ok := a.clients[m]
	if !ok {
		cs = &clientState{
			mac:    m,
			ring:   make([]*packet.Packet, cyclicQueueSlots),
			seenBA: make(map[uint64]bool),
		}
		a.clients[m] = cs
		a.rr = append(a.rr, m)
	}
	return cs
}

// Associate installs (or updates) client association state — the §4.3
// replication that scenario assembly performs on every AP.
func (a *AP) Associate(client packet.MACAddr, ip packet.IPv4Addr, serving bool) {
	cs := a.client(client)
	cs.ip = ip
	cs.serving = serving
}

// AlignQueue positions the client's cyclic-queue cursor at index k and
// discards any pending retry/drain MPDUs — the cell-handoff analogue of
// start(c, k). An AP appointed to serve a client admitted from another
// metro cell (DESIGN.md §17) must resume at the adopted controller's index
// cursor: its ring may still buffer a bygone stint's fan-out copies, and
// serving from the stale cursor would retransmit packets the client already
// received — past the client's TTL-bounded duplicate window.
func (a *AP) AlignQueue(client packet.MACAddr, k uint16) {
	cs := a.client(client)
	cs.nextSend = k
	cs.head = k
	cs.haveAny = true
	cs.retryQ = nil
	cs.drainQ = nil
	cs.drainPending = false
}

// Down reports whether the AP is currently crashed.
func (a *AP) Down() bool { return a.down }

// Crash fails the AP: it stops receiving backhaul messages, stops
// transmitting, and stops acknowledging client frames (its radio falls
// silent, so the client's rate adaptation and the controller's health
// monitor both see it disappear). In-memory queue state is left in place
// only to be discarded by Restart — the paper's APs keep the cyclic queue
// in RAM, so a power cycle loses it (DESIGN.md §11).
func (a *AP) Crash() {
	if a.down {
		return
	}
	a.down = true
	// Installed lazily on first crash so never-crashed runs keep the
	// filter-free ACK fast path.
	if a.st != nil {
		a.st.SetRespondFilter(func(packet.MACAddr) bool { return !a.down })
	}
}

// Restart brings a crashed AP back with cold queues: every client's ring,
// cursors, retry/drain queues, and Block ACK scoreboard reset, and the AP
// serving nobody until a start(c, k) re-appoints it. Association identity
// survives — §4.3 replicates it to every AP, so a rebooted AP re-learns
// (client MAC, IP) from the shared store rather than from scratch.
func (a *AP) Restart() {
	if !a.down {
		return
	}
	a.down = false
	for _, cs := range a.clients {
		cs.ring = make([]*packet.Packet, cyclicQueueSlots)
		cs.nextSend, cs.head = 0, 0
		cs.haveAny = false
		cs.serving = false
		cs.retryQ = nil
		cs.drainQ = nil
		cs.seenBA = make(map[uint64]bool)
		cs.lastEnqueue = 0
		cs.drainPending = false
	}
}

// StopProcessing and StartProcessing model the user-space Click + ioctl
// handling latency of control packets on the TP-Link APs; they dominate the
// paper's ~17–21 ms switch execution time (Table 1). ProcessingJitter adds
// ±jitter uniform noise to each, so neither delay can go negative. The
// simulator and the live tier run the same model.
const (
	StopProcessing   = 7 * sim.Millisecond
	StartProcessing  = 9 * sim.Millisecond
	ProcessingJitter = 4 * sim.Millisecond
)

func (a *AP) jitter() sim.Time {
	return sim.Time(a.rnd.Int64N(int64(2*ProcessingJitter))) - ProcessingJitter
}

// HandleBackhaul implements backhaul.Node. Control packets (stop/start) are
// modelled with their user-space processing delay; data tunneling is
// immediate (it lands in a queue, not on the air).
func (a *AP) HandleBackhaul(from packet.IPv4Addr, msg packet.Message) {
	if a.down {
		return
	}
	switch m := msg.(type) {
	case *packet.DownData:
		a.enqueueDownlink(m.Pkt)
	case *packet.Stop:
		a.eng.After(StopProcessing+a.jitter(), func() { a.handleStop(m) })
	case *packet.Start:
		a.eng.After(StartProcessing+a.jitter(), func() { a.handleStart(m) })
	case *packet.BlockAckFwd:
		a.handleForwardedBA(m)
	case *packet.HealthProbe:
		// Answered from the fast path, not the user-space control queue:
		// liveness detection must not inherit the stop/start processing
		// delay (DESIGN.md §11).
		a.Stats.ProbesAnswered++
		_ = a.bh.Send(a.cfg.IP, a.controller, &packet.HealthAck{AP: a.cfg.IP, Seq: m.Seq, At: m.At})
	}
}

// enqueueDownlink stores a tunneled packet in the client's cyclic queue.
func (a *AP) enqueueDownlink(p *packet.Packet) {
	cs := a.client(p.ClientMAC)
	slot := int(p.Index) % cyclicQueueSlots
	// Only an arrival behind the write head can land on a slot the backlog
	// still holds; an in-order one reuses a slot already sent or trimmed.
	if old := cs.ring[slot]; p.Index != cs.head && old != nil && old != p && cs.pending(old.Index) {
		a.dropUnsent(cs, 1)
	}
	cs.ring[slot] = p
	now := a.eng.Now()
	if !cs.haveAny {
		cs.haveAny = true
		cs.nextSend = p.Index
		cs.head = p.Index
	} else if now-cs.lastEnqueue > staleRingAfter {
		// The ring has been idle so long that its cursors describe a
		// bygone flow (and, after enough index wraps, possibly a bogus
		// half-space). Resynchronize to the resumed stream.
		cs.nextSend = p.Index
		cs.head = p.Index
	}
	cs.lastEnqueue = now
	// Advance the write head for in-order (or re-entrant after a fanout
	// gap) arrivals; stale re-deliveries behind the head are just stored.
	if packet.IndexDist(cs.head, p.Index) < uint16(cyclicQueueSlots/2) || cs.head == p.Index {
		cs.head = packet.NextIndex(p.Index)
	}
	// Cyclic overwrite: when the writer laps the reader, the oldest unsent
	// packets are gone — exactly what a ring buffer does under overload.
	// Keep the backlog within half the index space so forward-distance
	// arithmetic stays unambiguous.
	maxBacklog := uint16(cyclicQueueSlots/2 - 64)
	if cs.backlog() {
		if d := packet.IndexDist(cs.nextSend, cs.head); d > maxBacklog {
			dropped := d - maxBacklog
			cs.nextSend = (cs.nextSend + dropped) & packet.IndexMask
			a.dropUnsent(cs, uint64(dropped))
		}
	} else if cs.haveAny && cs.nextSend != cs.head &&
		packet.IndexDist(cs.nextSend, cs.head) > uint16(cyclicQueueSlots/2) {
		// The reader fell more than half the space behind (or a stale
		// start pointed far ahead): resynchronize to a bounded backlog.
		cs.nextSend = (cs.head - maxBacklog) & packet.IndexMask
		a.dropUnsent(cs, 1)
	}
	a.Stats.DownEnqueued++
	if a.met.queueDepth != nil {
		depth := 0
		if cs.backlog() {
			depth = int(packet.IndexDist(cs.nextSend, cs.head))
		}
		a.met.queueDepth.Observe(float64(depth))
	}
	if cs.serving {
		a.kick()
	}
}

// dropUnsent counts n unsent packets leaving cs's ring unsent: a loss at the
// serving AP, a routine trim at any other (it would send them only if a
// start pointed into them).
func (a *AP) dropUnsent(cs *clientState, n uint64) {
	if cs.serving {
		a.Stats.DownOverwritten += n
	} else {
		a.Stats.DownTrimmed += n
	}
}

// pending reports whether index idx lies in the backlog, between nextSend
// and the write head: stored and not yet sent.
func (cs *clientState) pending(idx uint16) bool {
	return cs.backlog() && packet.IndexDist(cs.nextSend, idx) < packet.IndexDist(cs.nextSend, cs.head)
}

// backlog reports whether the client has fresh (unsent) packets between
// nextSend and the write head.
func (cs *clientState) backlog() bool {
	if !cs.haveAny || cs.nextSend == cs.head {
		return false
	}
	// nextSend must be within the forward half-space of head; a start(k)
	// pointing past everything we have buffered means nothing to send yet.
	return packet.IndexDist(cs.nextSend, cs.head) <= uint16(len(cs.ring)/2)
}

// handleStop is step (1)+(2) of the switching protocol at the old AP: quench
// the client, query the first unsent index (the modelled ioctl), filter
// pending retries out of the driver queue, and send start(c, k) to the new
// AP. The MPDUs already committed to the in-flight A-MPDU still go out —
// the paper's NIC-hardware-queue drain.
func (a *AP) handleStop(m *packet.Stop) {
	if a.down {
		// The crash raced the already-queued processing delay: a dead AP
		// answers nothing (the controller's timeout or failover handles it).
		return
	}
	a.Stats.StopsHandled++
	a.met.spans.MarkStopHandled(m.SwitchID, int64(a.eng.Now()))
	cs := a.client(m.Client)
	k := cs.nextSend
	if !cs.serving {
		// Duplicate stop (controller timeout retransmission): still answer
		// with the current position so the protocol converges.
		a.sendStart(m, k)
		return
	}
	cs.serving = false
	// Driver-queue MPDUs already handed toward the NIC get one final
	// transmission opportunity (the hardware-queue drain); they are not
	// retried again after that.
	cs.drainQ = append(cs.drainQ, cs.retryQ...)
	cs.retryQ = nil
	if a.met.spans != nil {
		if len(cs.drainQ) == 0 {
			// Nothing committed toward the NIC: the drain is trivially over.
			a.met.spans.ObserveDrain(m.SwitchID, 0, 0)
			cs.drainPending = false
		} else {
			cs.drainPending = true
			cs.drainSwitchID = m.SwitchID
			cs.drainStart = a.eng.Now()
			cs.drainCount = 0
		}
	}
	a.sendStart(m, k)
	a.kick()
}

func (a *AP) sendStart(m *packet.Stop, k uint16) {
	start := &packet.Start{Client: m.Client, Index: k, SwitchID: m.SwitchID}
	// An unknown next AP is nothing to act on: the controller's timeout fires.
	_ = a.bh.Send(a.cfg.IP, m.NextAP, start)
}

// handleStart is step (3) at the new AP: jump the cyclic-queue cursor to k,
// take over transmission, and ack the controller.
func (a *AP) handleStart(m *packet.Start) {
	if a.down {
		return
	}
	a.Stats.StartsHandled++
	a.met.spans.MarkStartHandled(m.SwitchID, int64(a.eng.Now()))
	cs := a.client(m.Client)
	if !cs.haveAny {
		// Taking over with an empty ring (this AP joined the fan-out set
		// late): align the write head with the resume point, or the head
		// logic would treat every subsequent enqueue as a stale redelivery.
		cs.head = m.Index
	}
	if cs.haveAny {
		if back := packet.IndexDist(m.Index, cs.nextSend); back != 0 && back < 2048 {
			a.Stats.StartRewinds++
			a.Stats.RewindDepth += uint64(back)
		}
	}
	cs.nextSend = m.Index
	cs.haveAny = true
	cs.serving = true
	ack := &packet.SwitchAck{Client: m.Client, AP: a.cfg.IP, SwitchID: m.SwitchID}
	_ = a.bh.Send(a.cfg.IP, a.controller, ack)
	a.kick()
}

// handleForwardedBA merges a Block ACK forwarded by a neighbour into this
// AP's retry state — the ath_tx_complete_aggr() injection of §3.2.1.
func (a *AP) handleForwardedBA(m *packet.BlockAckFwd) {
	cs, ok := a.clients[m.Client]
	if !ok || !cs.serving {
		return
	}
	key := uint64(m.SSN)<<48 ^ m.Bitmap
	if cs.seenBA[key] {
		a.Stats.BADuplicates++
		return
	}
	a.rememberBA(cs, key)
	merged := a.completeFromBitmap(cs, m.SSN, m.Bitmap)
	if merged > 0 {
		a.Stats.BAMerged += uint64(merged)
	}
}

// rememberBA records a scoreboard with bounded memory.
func (a *AP) rememberBA(cs *clientState, key uint64) {
	if len(cs.seenBA) > 256 {
		cs.seenBA = make(map[uint64]bool, 64)
	}
	cs.seenBA[key] = true
}

// completeFromBitmap removes retry-queue MPDUs acknowledged by the bitmap.
func (a *AP) completeFromBitmap(cs *clientState, ssn uint16, bitmap uint64) int {
	kept := cs.retryQ[:0]
	done := 0
	for _, mp := range cs.retryQ {
		if mac.BitmapAcks(ssn, bitmap, mp.Seq) {
			done++
			a.Stats.MPDUsDelivered++
			if a.OnDeliver != nil && mp.Pkt != nil {
				a.OnDeliver(mp.Pkt, a.eng.Now())
			}
			continue
		}
		kept = append(kept, mp)
	}
	cs.retryQ = kept
	return done
}
