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
	"errors"
	"math/rand/v2"

	"wgtt/internal/backhaul"
	"wgtt/internal/mac"
	"wgtt/internal/metrics"
	"wgtt/internal/packet"
	"wgtt/internal/sim"
)

// Config parameterizes one AP.
type Config struct {
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

// Stats counts AP-side events for the evaluation harness. A downlink packet
// obeys two conservation laws, which Conserved checks:
//
//	ring:  DownEnqueued + RewindDepth = DownSent + DownOverwritten + DownTrimmed
//	       + DownSkipped + DownWiped + the entries still queued
//	MPDUs: DownSent = MPDUsDelivered + MPDUsDropped + MPDUsFlushed
//	       + MPDUsDiscarded + the MPDUs in retry or drain queues or on the air
//
// A queued entry is a stored packet the cursor will still send: one between
// nextSend and the write head. Every exit from the ring and from the MPDU
// queues is one counter below, and a cursor move is counted over the indices
// it crosses.
type Stats struct {
	DownEnqueued uint64 `metric:"down_enqueued"` // packets accepted into cyclic queues
	// RewindDepth counts entries a cursor move put back in the queue: a
	// start behind nextSend (the re-send), a write head jumping over a
	// previous lap's entries, or a reader resynchronized behind the head.
	RewindDepth     uint64
	DownSent        uint64 // entries handed to the NIC queue as fresh MPDUs
	DownOverwritten uint64 `metric:"ring_overwrites"` // unsent packets the serving AP lost to overload, once each
	DownTrimmed     uint64 `metric:"ring_trimmed"`    // unsent packets a non-serving AP trimmed off its backlog
	// DownSkipped counts unsent entries a cursor jumped past — a start ahead
	// of nextSend (the old AP sent them), a stale-ring resync, AlignQueue —
	// and arrivals stored where the cursor will not send them.
	DownSkipped    uint64
	DownWiped      uint64 // unsent entries a Restart discarded
	MPDUsDelivered uint64 // MPDUs acknowledged by the client
	MPDUsDropped   uint64 // MPDUs dropped at the retry limit
	MPDUsFlushed   uint64 // MPDUs back unacknowledged after a stop
	// MPDUsDiscarded counts retry and drain MPDUs AlignQueue or Restart
	// discarded, and the MPDUs on the air when the AP crashed.
	MPDUsDiscarded  uint64
	StopsHandled    uint64 `metric:"stops_handled"`
	StartsHandled   uint64 `metric:"starts_handled"`
	BAForwarded     uint64 `metric:"ba_forwarded"`     // Block ACKs forwarded to peers
	BAMerged        uint64 `metric:"ba_merged"`        // forwarded Block ACKs merged into retry state
	KeepalivesHeard uint64 `metric:"keepalives_heard"` // null-data CSI keepalives heard (§3.1.1)
	CSIReports      uint64 `metric:"csi_reports"`
}

// clientState is everything this AP tracks for one mobile client.
type clientState struct {
	mac  packet.MACAddr
	ip   packet.IPv4Addr
	ring []*packet.Packet // cyclic queue, slot = index % slots
	// filled counts the ring's slots that hold a packet. A slot is never
	// emptied, only overwritten, so once every slot has been written each
	// index holds a packet and nothing need load a slot to count it — not
	// the slot an overloaded ring's every enqueue laps (backhaul-fanout).
	filled int
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

// maxBacklog bounds a client's unsent backlog to within half the index
// space, so forward-distance arithmetic stays unambiguous.
const maxBacklog = uint16(cyclicQueueSlots/2 - 64)

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
	rr      []*clientState // round-robin order over clients
	// last memoizes lookup: the state it found last. A fan-out tunnels one
	// client's packets back to back, so a copy finds its ring without
	// hashing the MAC. A state is never replaced (Restart resets each in
	// place), so the memo never goes stale.
	last *clientState

	// down is true while a chaos-injected crash holds the AP off the air
	// and off the backhaul (DESIGN.md §11).
	down bool
	// airborne counts the MPDUs of the frame BuildFrame handed the
	// station, until OnTxDone reports it.
	airborne int

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

// UseMetrics names the AP's counters — the tagged Stats fields — in r under the
// AP's name and wires its live instruments (call before the run starts). A
// nil registry leaves recording disabled.
func (a *AP) UseMetrics(r *metrics.Registry) {
	comp := a.cfg.Name
	r.Counters(comp, &a.Stats)
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
	cs := a.lookup(client)
	if cs == nil {
		return 0
	}
	n := len(cs.retryQ) + len(cs.drainQ)
	if cs.backlog() {
		n += int(packet.IndexDist(cs.nextSend, cs.head))
	}
	return n
}

// lookup returns m's state, nil if the AP has none.
func (a *AP) lookup(m packet.MACAddr) *clientState {
	if cs := a.last; cs != nil && cs.mac == m {
		return cs
	}
	cs := a.clients[m]
	if cs != nil {
		a.last = cs
	}
	return cs
}

// client returns m's state, made on first use.
func (a *AP) client(m packet.MACAddr) *clientState {
	cs := a.lookup(m)
	if cs == nil {
		cs = newClientState(m, packet.IPv4Addr{})
		a.clients[m] = cs
		a.rr = append(a.rr, cs)
		a.last = cs
	}
	return cs
}

// newClientState is a client's state with nothing queued — the one
// constructor, so a field added to clientState is cold after a Restart.
// The ring is allocated as an array rather than by make: the garbage
// collector reads a make'd slice's pointer bitmap one element at a time but
// an array's 64 slots per word, and every collection scans every ring.
func newClientState(m packet.MACAddr, ip packet.IPv4Addr) *clientState {
	return &clientState{
		mac:    m,
		ip:     ip,
		ring:   new([cyclicQueueSlots]*packet.Packet)[:],
		seenBA: make(map[uint64]bool),
	}
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
	a.Stats.DownSkipped += cs.queued()
	a.Stats.MPDUsDiscarded += uint64(len(cs.retryQ) + len(cs.drainQ))
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

// Restart brings a crashed AP back with cold queues: every client's state
// is rebuilt in place by newClientState, the constructor a first
// association uses, serving nobody until a start(c, k) re-appoints it.
// Association identity — MAC, IP and the round-robin order — survives: §4.3
// replicates it to every AP, so a rebooted AP re-learns it from the shared
// store rather than from scratch.
func (a *AP) Restart() {
	if !a.down {
		return
	}
	a.down = false
	for _, cs := range a.rr {
		a.Stats.DownWiped += cs.queued()
		a.Stats.MPDUsDiscarded += uint64(len(cs.retryQ) + len(cs.drainQ))
		*cs = *newClientState(cs.mac, cs.ip)
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
		_ = a.bh.Send(a.cfg.IP, a.controller, &packet.HealthAck{AP: a.cfg.IP, Seq: m.Seq, At: m.At})
	}
}

// enqueueDownlink stores a tunneled packet in the client's cyclic queue.
func (a *AP) enqueueDownlink(p *packet.Packet) {
	cs := a.client(p.ClientMAC)
	now := a.eng.Now()
	// The common arrival — the next index of a live ring within its bound —
	// stores the packet, advances the write head and trims at most one
	// entry, each counted where it happens.
	if d := packet.IndexDist(cs.nextSend, cs.head); p.Index == cs.head && cs.haveAny &&
		now-cs.lastEnqueue <= staleRingAfter && d <= maxBacklog {
		cs.put(p)
		cs.head = packet.NextIndex(p.Index)
		if d == maxBacklog {
			// Cyclic overwrite: the writer laps the reader, and the oldest
			// unsent packet is gone — what a ring buffer does under overload.
			if cs.has(cs.nextSend) {
				a.dropUnsent(cs, 1)
			}
			cs.nextSend = packet.NextIndex(cs.nextSend)
		}
	} else {
		a.enqueueOther(cs, p, now)
	}
	cs.lastEnqueue = now
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

// enqueueOther stores every other arrival: the first, one after the ring sat
// idle, one behind the write head or past a fan-out gap, or one into a
// backlog a start left over its bound. Each cursor move is counted over the
// range of indices it crosses: entries it takes into the queue are put back
// (RewindDepth), entries it passes over unsent are skipped or dropped.
func (a *AP) enqueueOther(cs *clientState, p *packet.Packet, now sim.Time) {
	const half = uint16(cyclicQueueSlots / 2)
	slot := int(p.Index) % cyclicQueueSlots
	old, pending := cs.ring[slot], cs.pending(p.Index)
	if pending && old == p {
		a.Stats.DownSkipped++ // already queued: this copy is never sent
	} else if pending && old != nil {
		// Only an arrival behind the write head can land on a slot the
		// backlog still holds; the unsent packet there is gone.
		a.dropUnsent(cs, 1)
	}
	if !cs.haveAny || now-cs.lastEnqueue > staleRingAfter {
		// A first arrival; or the ring has been idle so long that its cursors
		// describe a bygone flow (and, after enough index wraps, possibly a
		// bogus half-space). Resynchronize to the resumed stream, passing the
		// old backlog over; p alone is queued.
		q := cs.queued()
		if pending && old != nil {
			q-- // counted above
		}
		a.Stats.DownSkipped += q
		cs.put(p)
		cs.haveAny = true
		cs.nextSend, cs.head = p.Index, packet.NextIndex(p.Index)
		return
	}
	cs.put(p)
	n, h := cs.nextSend, cs.head
	// valid: the counted queue is the stored entries of [nextSend, head).
	// It is not while a start has left nextSend ahead of the head.
	valid := packet.IndexDist(n, h) <= half
	if p.Index != h && packet.IndexDist(h, p.Index) >= half {
		// Behind the write head: no cursor moves.
		if !pending {
			a.Stats.DownSkipped++ // behind the read cursor: never sent
		}
	} else {
		// In order, or past a fan-out gap: the write head jumps over the
		// slots between, and whatever a previous lap left in them is queued
		// again with p.
		cs.head = packet.NextIndex(p.Index)
		switch gap, ahead := packet.IndexDist(h, cs.head), packet.IndexDist(h, n); {
		case valid && int(packet.IndexDist(n, h))+int(gap) < cyclicQueueSlots:
			a.Stats.RewindDepth += cs.stored(h, p.Index)
		case !valid && ahead < gap: // the head passed a reader a start put ahead of it
			a.Stats.RewindDepth += cs.stored(n, p.Index)
			valid = true
		case !valid && ahead > gap:
			a.Stats.DownSkipped++ // p lands short of the reader: never sent
		case valid: // a full half-space jump lands on the reader: nothing stays queued
			a.Stats.DownSkipped += cs.stored(n, h) + 1
		default: // the head lands on the reader: p is behind it
			a.Stats.DownSkipped++
			valid = true
		}
	}
	switch d := packet.IndexDist(cs.nextSend, cs.head); {
	case !valid:
		// A start pointed far ahead and the head has not caught up:
		// resynchronize to a bounded backlog, queueing what the ring holds.
		cs.nextSend = (cs.head - maxBacklog) & packet.IndexMask
		a.Stats.RewindDepth += cs.stored(cs.nextSend, cs.head)
	case d > maxBacklog:
		// Over the bound (a start left it there, or the head jumped a gap):
		// the reader moves up to it. Within half the space the passed
		// packets are trimmed or overwritten; beyond it the reader fell
		// behind the head's jump and is resynchronized past them.
		from := cs.nextSend
		cs.nextSend = (cs.head - maxBacklog) & packet.IndexMask
		if passed := cs.stored(from, cs.nextSend); d <= half {
			a.dropUnsent(cs, passed)
		} else {
			a.Stats.DownSkipped += passed
		}
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

// queued is the number of entries the cursor will still send: the stored
// packets between nextSend and the write head.
func (cs *clientState) queued() uint64 {
	if !cs.backlog() {
		return 0
	}
	return cs.stored(cs.nextSend, cs.head)
}

// stored counts the ring's packets at indices from up to (not including) to.
func (cs *clientState) stored(from, to uint16) uint64 {
	if cs.filled == cyclicQueueSlots {
		return uint64(packet.IndexDist(from, to))
	}
	n := uint64(0)
	for i := from; i != to; i = packet.NextIndex(i) {
		if cs.ring[int(i)%cyclicQueueSlots] != nil {
			n++
		}
	}
	return n
}

// has reports whether index i's slot holds a packet.
func (cs *clientState) has(i uint16) bool {
	return cs.filled == cyclicQueueSlots || cs.ring[int(i)%cyclicQueueSlots] != nil
}

// put stores p in its index's slot.
func (cs *clientState) put(p *packet.Packet) {
	slot := int(p.Index) % cyclicQueueSlots
	if cs.ring[slot] == nil {
		cs.filled++
	}
	cs.ring[slot] = p
}

// Conserved checks the ring and MPDU laws of Stats against the queues as
// they stand.
func (a *AP) Conserved() error {
	var queued, mpdus uint64
	for _, cs := range a.clients {
		queued += cs.queued()
		mpdus += uint64(len(cs.retryQ) + len(cs.drainQ))
	}
	st := &a.Stats
	return errors.Join(
		metrics.Conserved(a.cfg.Name,
			"ring: enqueued + requeued = sent + overwritten + trimmed + skipped + wiped + queued",
			st.DownEnqueued+st.RewindDepth,
			st.DownSent+st.DownOverwritten+st.DownTrimmed+st.DownSkipped+st.DownWiped+queued),
		metrics.Conserved(a.cfg.Name,
			"MPDUs: sent = delivered + dropped + flushed + discarded + queued or on the air",
			st.DownSent, st.MPDUsDelivered+st.MPDUsDropped+st.MPDUsFlushed+st.MPDUsDiscarded+mpdus+uint64(a.airborne)))
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
	a.moveReader(cs, m.Index)
	cs.haveAny = true
	cs.serving = true
	ack := &packet.SwitchAck{Client: m.Client, AP: a.cfg.IP, SwitchID: m.SwitchID}
	_ = a.bh.Send(a.cfg.IP, a.controller, ack)
	a.kick()
}

// moveReader moves cs's read cursor to k, counting the entries between the
// two positions: a start behind the cursor puts them back for re-sending, one
// ahead of it hands them to the old AP. A position more than half the space
// from the write head queues nothing (backlog), so a move across that bound
// puts back or passes over the whole backlog on its side.
func (a *AP) moveReader(cs *clientState, k uint16) {
	const half = uint16(cyclicQueueSlots / 2)
	n, h := cs.nextSend, cs.head
	cs.nextSend = k
	if !cs.haveAny {
		return
	}
	switch was, is := packet.IndexDist(n, h), packet.IndexDist(k, h); {
	case was <= half && is <= half && is > was:
		a.Stats.RewindDepth += cs.stored(k, n)
	case was <= half && is <= half:
		a.Stats.DownSkipped += cs.stored(n, k)
	case was <= half:
		a.Stats.DownSkipped += cs.stored(n, h)
	case is <= half:
		a.Stats.RewindDepth += cs.stored(k, h)
	}
}

// handleForwardedBA merges a Block ACK forwarded by a neighbour into this
// AP's retry state — the ath_tx_complete_aggr() injection of §3.2.1.
func (a *AP) handleForwardedBA(m *packet.BlockAckFwd) {
	cs := a.lookup(m.Client)
	if cs == nil || !cs.serving {
		return
	}
	key := uint64(m.SSN)<<48 ^ m.Bitmap
	if cs.seenBA[key] {
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
