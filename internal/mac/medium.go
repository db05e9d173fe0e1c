package mac

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"wgtt/internal/csi"
	"wgtt/internal/packet"
	"wgtt/internal/phy"
	"wgtt/internal/radio"
	"wgtt/internal/sim"
)

// Medium arbitrates one 2.4 GHz channel among all stations (the testbed
// runs every AP on channel 11, §4) and performs frame delivery through the
// radio channel model: per-receiver CSI snapshots, per-MPDU Bernoulli loss
// from the ESNR→PER model, data/response sequencing with SIFS, transmit
// collisions between same-slot DCF winners, and capture-or-collide
// resolution when several APs answer one client frame (§5.3.2).
type Medium struct {
	eng *sim.Engine
	ch  *radio.Channel
	rnd *rand.Rand

	stations []*Station
	byAddr   map[packet.MACAddr][]*Station // alias-aware (shared BSSID)

	busyUntil  sim.Time
	waiters    []*txAttempt
	grantTimer sim.Timer
	// grantFn and armFn are m.grant and m.arm bound once: a method value
	// written where it is scheduled allocates on every grant.
	grantFn, armFn func()

	// onAir and heard are capture's inputs and scratch, reused across
	// grants: the stations transmitting in the current phase (data frames,
	// then responses), and the subset one receiver has a link to.
	onAir []*Station
	heard []contender

	// rxFree and baFree hold the events whose sink call has returned (see
	// Sink); they start empty and grow to the most events ever in flight.
	// The rest is grant's and deliverResponses' scratch, reused across
	// grants. All of it belongs to this medium alone, so concurrent
	// simulations share nothing.
	rxFree      []*RxEvent
	baFree      []*BAEvent
	winners     []*txAttempt
	live        []liveTx
	responses   []respPlan
	respWinners []respPlan
	jit         []int
	seqs        []uint16
	sizes       []int
	snr         []float64 // skipFrame's CSI snapshot

	// Stats, exported for the evaluation harness.
	Grants         uint64   // medium acquisitions
	TxCollisions   uint64   // same-slot winner collisions
	RespCollisions uint64   // response (ACK/BA) collisions at a destination
	RespTotal      uint64   // response opportunities observed
	BusyTime       sim.Time // cumulative airtime (frames + responses)
}

type txAttempt struct {
	st      *Station
	backoff int
	build   func() *Frame
	done    func(*TxResult)
}

// liveTx is one frame actually going on the air in a grant.
type liveTx struct {
	att   *txAttempt
	frame *Frame
	air   sim.Time
}

// respPlan is one pending ACK/Block ACK response.
type respPlan struct {
	responder *Station
	toward    *Station // data sender being acknowledged
	ssn       uint16
	bitmap    uint64
	kindMgmt  bool
}

// TxResult reports the outcome of one transmission attempt to its sender.
type TxResult struct {
	Frame *Frame
	// BAReceived is true when the sender decoded the (Block) ACK response.
	BAReceived bool
	// SSN and Bitmap are the response scoreboard when BAReceived.
	SSN    uint16
	Bitmap uint64
}

// basicRateMCS is the HT-equivalent robustness of the 24 Mb/s legacy rate
// used for ACK/Block ACK responses (16-QAM, rate 1/2).
const basicRateMCS = phy.MCS(3)

// NewMedium creates the shared channel arbiter.
func NewMedium(eng *sim.Engine, ch *radio.Channel, rnd *rand.Rand) *Medium {
	m := &Medium{
		eng:    eng,
		ch:     ch,
		rnd:    rnd,
		byAddr: make(map[packet.MACAddr][]*Station),
	}
	m.grantFn, m.armFn = m.grant, m.arm
	return m
}

// register wires a station into the medium (called by NewStation).
func (m *Medium) register(s *Station) {
	m.stations = append(m.stations, s)
	m.byAddr[s.Addr] = append(m.byAddr[s.Addr], s)
	for _, a := range s.Aliases {
		m.byAddr[a] = append(m.byAddr[a], s)
	}
}

// unregister detaches a station (channel retune). Pending, ungranted
// attempts are abandoned with a nil result so the station's transmit
// pipeline unblocks; an exchange already on the air completes normally.
func (m *Medium) unregister(s *Station) {
	for i, st := range m.stations {
		if st == s {
			m.stations = append(m.stations[:i], m.stations[i+1:]...)
			break
		}
	}
	removeFrom := func(addr packet.MACAddr) {
		list := m.byAddr[addr]
		for i, st := range list {
			if st == s {
				m.byAddr[addr] = append(list[:i], list[i+1:]...)
				return
			}
		}
	}
	removeFrom(s.Addr)
	for _, a := range s.Aliases {
		removeFrom(a)
	}
	kept := m.waiters[:0]
	var dropped []*txAttempt
	for _, w := range m.waiters {
		if w.st == s {
			dropped = append(dropped, w)
		} else {
			kept = append(kept, w)
		}
	}
	m.waiters = kept
	for _, w := range dropped {
		if w.done != nil {
			w.done(nil)
		}
	}
	m.arm()
}

// request enqueues a transmission attempt with the given backoff slots.
func (m *Medium) request(att *txAttempt) {
	m.waiters = append(m.waiters, att)
	m.arm()
}

// arm (re)schedules the next grant for the current waiter set.
func (m *Medium) arm() {
	m.grantTimer.Stop()
	if len(m.waiters) == 0 {
		return
	}
	idleAt := m.busyUntil
	if now := m.eng.Now(); now > idleAt {
		idleAt = now
	}
	minb := m.waiters[0].backoff
	for _, w := range m.waiters[1:] {
		if w.backoff < minb {
			minb = w.backoff
		}
	}
	at := idleAt + phy.DIFS + sim.Time(minb)*phy.Slot
	m.grantTimer = m.eng.At(at, m.grantFn)
}

// grant fires when the earliest backoff expires: winners transmit.
func (m *Medium) grant() {
	m.grantTimer = sim.Timer{}
	if len(m.waiters) == 0 {
		return
	}
	minb := m.waiters[0].backoff
	for _, w := range m.waiters[1:] {
		if w.backoff < minb {
			minb = w.backoff
		}
	}
	winners := m.winners[:0]
	rest := m.waiters[:0]
	for _, w := range m.waiters {
		w.backoff -= minb
		if w.backoff == 0 {
			winners = append(winners, w)
		} else {
			rest = append(rest, w)
		}
	}
	m.waiters, m.winners = rest, winners

	// Build frames now — packets dequeued while waiting (e.g. by a WGTT
	// stop) are simply no longer part of the aggregate.
	live := m.live[:0]
	for _, w := range winners {
		fr := w.build()
		if fr == nil || (fr.Kind == KindData && len(fr.MPDUs) == 0) {
			if w.done != nil {
				w.done(nil) // nothing to send
			}
			continue
		}
		live = append(live, liveTx{att: w, frame: fr, air: fr.airtime(&m.sizes)})
	}
	m.live = live
	if len(live) == 0 {
		m.arm()
		return
	}
	m.Grants++
	collision := len(live) > 1
	if collision {
		m.TxCollisions++
	}
	m.onAir = m.onAir[:0]
	for _, lt := range live {
		m.onAir = append(m.onAir, lt.att.st)
	}

	t0 := m.eng.Now()
	var dur sim.Time
	for _, lt := range live {
		if lt.air > dur {
			dur = lt.air
		}
	}
	frameEnd := t0 + dur
	mid := t0 + dur/2 // channel sampling instant

	// Decide decode outcomes per receiver now (the channel is a pure
	// function of time, so sampling "in the future" at mid is sound).
	responses := m.responses[:0]

	for li, lt := range live {
		fr := lt.frame
		sender := lt.att.st
		for _, rx := range m.stations {
			if rx == sender {
				continue
			}
			owned := rx.ownsAddr(fr.To)
			overheard := !owned && fr.To != BroadcastAddr
			if overheard && !rx.Promiscuous {
				continue
			}
			link, err := m.ch.Link(sender.Endpoint.Name, rx.Endpoint.Name)
			if err != nil {
				continue
			}
			lost := collision && m.collidedAt(rx, li, mid)
			if overheard && !rx.overhears(fr.From) {
				// A capture nobody reads still makes its draws (skipFrame).
				if !lost {
					m.skipFrame(fr, link, sender.Endpoint, mid)
				}
				continue
			}
			// The event comes first so its inline snrStore can receive the
			// CSI snapshot.
			ev := m.getRx(rx)
			ev.At = frameEnd
			ev.From = fr.From
			ev.Kind = fr.Kind
			ev.Overheard = overheard
			ev.SNRdB = ev.snrStore[:0]

			// PHY sync is a per-frame event: the preamble either locks or
			// the whole PPDU is invisible. Payload CRCs then fail per MPDU.
			if !lost {
				var esnr float64
				ev.SNRdB, esnr, ev.Synced = m.settle(link, sender.Endpoint, mid,
					phy.Lookup(fr.MCS).Modulation, phy.SyncFailureProb, ev.SNRdB)
				if ev.Synced {
					ev.decStore = m.decodeMPDUs(fr, esnr, ev.decStore[:0])
					ev.Decoded = ev.decStore
				}
			}
			if fr.Kind == KindBeacon {
				ev.RSSIdBm = link.RSSIdBm(mid, sender.Endpoint.TxPowerDBm)
				if len(ev.SNRdB) == 0 {
					ev.SNRdB = link.SNRInto(mid, sender.Endpoint, ev.SNRdB)
				}
			}
			m.eng.At(frameEnd, ev.fire)

			// Response decision: owners that decoded something respond.
			if fr.ExpectsResponse() && owned && len(ev.Decoded) > 0 && rx.responds(fr.From) {
				ssn := fr.StartSeq()
				m.seqs = m.seqs[:0]
				for _, d := range ev.Decoded {
					m.seqs = append(m.seqs, d.Seq)
				}
				responses = append(responses, respPlan{
					responder: rx,
					toward:    sender,
					ssn:       ssn,
					bitmap:    BuildBitmap(ssn, m.seqs),
					kindMgmt:  fr.Kind == KindMgmt,
				})
			}
		}
	}
	m.responses = responses

	end := frameEnd
	if len(responses) > 0 {
		respDur := phy.BlockAckDuration()
		if responses[0].kindMgmt {
			respDur = phy.AckDuration()
		}
		respEnd := frameEnd + phy.SIFS + respDur
		respMid := frameEnd + phy.SIFS + respDur/2
		end = respEnd
		m.deliverResponses(responses, respMid, respEnd)
	}

	m.busyUntil = end
	m.BusyTime += end - t0

	// Sender completions fire once the whole exchange is over; the result
	// for each sender is derived from the response addressed to it.
	for _, lt := range live {
		lt := lt
		res := &TxResult{Frame: lt.frame}
		for _, rp := range responses {
			if rp.toward == lt.att.st {
				// Whether the sender actually decodes the response is
				// resolved in deliverResponses; mark intent here and let
				// the BA delivery fill in reality.
				lt.att.st.expectBA(res, rp.ssn)
			}
		}
		m.eng.At(end, func() {
			if lt.att.done != nil {
				lt.att.done(res)
			}
		})
	}

	m.eng.At(end, m.armFn)
}

// Capture margins: a receiver decodes the strongest of the transmissions
// that overlap at it only when that one clears the runner-up by the margin,
// and loses all of them otherwise. A 32-byte Block ACK at the 24 Mb/s legacy
// rate is far easier to capture than a long HT aggregate, hence the lower
// margin for responses (DESIGN.md §6).
const (
	captureDB     = 10.0
	respCaptureDB = 4.0
)

// contender is one transmission a receiver could lock onto: its index in
// Medium.onAir and the link it arrives over.
type contender struct {
	idx  int
	link *radio.Link
}

// capture is the one capture rule: of the m.onAir transmissions overlapping
// at rx at instant at, it returns the index of the strongest, the link it
// arrives over, and its power margin in dB over the runner-up — the caller
// holds that against captureDB or respCaptureDB. rx's own transmission is
// never a candidate, nor is one from a station the channel has no link to;
// with no candidate strongest is -1. Received power is sampled only when
// there is something to rank: a lone transmission wins with an infinite
// margin and costs no channel evaluation.
func (m *Medium) capture(rx *Station, at sim.Time) (strongest int, link *radio.Link, marginDB float64) {
	m.heard = m.heard[:0]
	for i, tx := range m.onAir {
		if tx == rx {
			continue
		}
		if l, err := m.ch.Link(tx.Endpoint.Name, rx.Endpoint.Name); err == nil {
			m.heard = append(m.heard, contender{idx: i, link: l})
		}
	}
	switch len(m.heard) {
	case 0:
		return -1, nil, 0
	case 1:
		return m.heard[0].idx, m.heard[0].link, math.Inf(1)
	}
	strongest = -1
	best, second := math.Inf(-1), math.Inf(-1)
	for _, c := range m.heard {
		p := c.link.RSSIdBm(at, m.onAir[c.idx].Endpoint.TxPowerDBm)
		if p > best {
			second = best
			best = p
			strongest, link = c.idx, c.link
		} else if p > second {
			second = p
		}
	}
	return strongest, link, best - second
}

// collidedAt reports whether transmission li of m.onAir is lost at rx to an
// overlapping one under the capture rule.
func (m *Medium) collidedAt(rx *Station, li int, at sim.Time) bool {
	strongest, _, margin := m.capture(rx, at)
	return strongest != li || margin < captureDB
}

// ceilingSlackDB covers how far an ESNR may sit above the best subcarrier it
// averages: the BER tables' inverse error, at most 0.01 dB (phy/bertab.go),
// and the last bits of the dB conversions.
const ceilingSlackDB = 0.05

// settle is a capture's loss decision: one draw r against loss at the
// capture's ESNR, where loss is phy.SyncFailureProb or blockAckLoss. It
// returns the CSI snapshot (into dst), its ESNR under mod, and whether r
// survives. Both losses fall as ESNR rises, and no ESNR exceeds the link's
// budget plus its fading ceiling plus ceilingSlackDB, so a draw below the
// loss at that bound is lost whatever the fading does: settle then returns
// an empty snapshot and samples nothing. Sampling makes no medium draw, so
// the random stream is the same either way; only the work differs.
func (m *Medium) settle(link *radio.Link, from *radio.Endpoint, at sim.Time, mod phy.Modulation,
	loss func(esnrDB float64) float64, dst []float64) (snr []float64, esnr float64, ok bool) {
	r := m.rnd.Float64()
	budget := link.BudgetDB(at, from.TxPowerDBm)
	if r < loss(budget+link.CeilingDB()+ceilingSlackDB) {
		return dst[:0], math.Inf(-1), false
	}
	snr = link.SampleInto(at, budget, dst)
	esnr = csi.ESNRdB(snr, mod)
	return snr, esnr, r >= loss(esnr)
}

// blockAckLoss is the loss probability of a Block ACK at ESNR esnrDB.
// Control responses go out in legacy OFDM at the 24 Mb/s basic rate —
// 16-QAM rate ½, i.e. MCS3-grade robustness, not MCS0. This is why the
// paper sees Block ACKs "prone to loss" near cell edges while low-MCS data
// still gets through (§3.2.1).
func blockAckLoss(esnrDB float64) float64 {
	return phy.PER(basicRateMCS, esnrDB, phy.BlockAckBytes)
}

// skipFrame stands in for a monitor-mode capture of fr, over link, that the
// receiver's sink declines (Sink.Overhears) and that survived capture: it
// builds no event and schedules nothing, but makes exactly the draws the
// capture would have — one sync draw, then one per MPDU if it synced — so
// the medium's random stream, and every other receiver's outcome, stay as
// if it were delivered. The snapshot goes into medium scratch; the per-MPDU
// draws never depend on the PER they would be compared against, so that is
// not computed.
func (m *Medium) skipFrame(fr *Frame, link *radio.Link, from *radio.Endpoint, mid sim.Time) {
	var synced bool
	m.snr, _, synced = m.settle(link, from, mid, phy.Lookup(fr.MCS).Modulation, phy.SyncFailureProb, m.snr)
	if !synced {
		return
	}
	for range fr.MPDUs {
		m.rnd.Float64()
	}
}

// decodeMPDUs applies the per-MPDU payload loss model for one synced frame,
// appending the survivors to out.
func (m *Medium) decodeMPDUs(fr *Frame, esnr float64, out []*MPDU) []*MPDU {
	for _, mp := range fr.MPDUs {
		per := phy.PayloadPER(fr.MCS, esnr, mp.Bytes+phy.MACHeaderBytes+phy.FCSBytes)
		if m.rnd.Float64() >= per {
			out = append(out, mp)
		}
	}
	return out
}

// deliverResponses resolves the ACK/Block ACK phase. When several stations
// answer the same frame (every WGTT AP acknowledges uplink frames addressed
// to the shared BSSID), their response timing jitters by a few microseconds
// — the paper observes the HT-immediate Block ACK backoff varying "in the
// range of µs" (§5.3.2) — so usually one responder starts first and the
// rest suppress. Only same-slot ties go on the air together, and then each
// observer either captures the strongest or loses all: that combination is
// what keeps the measured ACK collision rate at Table 3's ~10⁻⁵ level.
func (m *Medium) deliverResponses(responses []respPlan, respMid, respEnd sim.Time) {
	m.RespTotal++
	if len(responses) > 1 {
		// Per-responder µs jitter; earliest slot transmits, rest suppress.
		minJ := 1 << 30
		m.jit = m.jit[:0]
		for range responses {
			j := m.rnd.IntN(64)
			m.jit = append(m.jit, j)
			minJ = min(minJ, j)
		}
		m.respWinners = m.respWinners[:0]
		for i, rp := range responses {
			if m.jit[i] == minJ {
				m.respWinners = append(m.respWinners, rp)
			}
		}
		responses = m.respWinners
	}
	m.onAir = m.onAir[:0]
	for _, rp := range responses {
		m.onAir = append(m.onAir, rp.responder)
	}

	for _, rx := range m.stations {
		if slices.Contains(m.onAir, rx) {
			continue // a responder is transmitting, not listening
		}
		// Which response, if any, does rx decode?
		strongest, link, margin := m.capture(rx, respMid)
		if strongest < 0 {
			continue
		}
		if margin < respCaptureDB {
			// Collision at this observer. Count it only at a station the
			// response was addressed to (the retransmission cost is theirs).
			for _, rp := range responses {
				if rp.toward == rx {
					m.RespCollisions++
				}
			}
			continue
		}
		rp := responses[strongest]
		if rp.toward != rx && !rx.overhears(rp.responder.Addr) {
			// A capture nobody reads makes the one draw it would have made
			// — the PER test below — and nothing else: the draw does not
			// depend on the PER, so neither the CSI snapshot nor the event
			// is needed to keep the medium's random stream in step.
			m.rnd.Float64()
			continue
		}
		ev := m.getBA(rx)
		ev.At = respEnd
		ev.Responder = rp.responder.Addr
		ev.SSN = rp.ssn
		ev.Bitmap = rp.bitmap
		ev.Overheard = rp.toward != rx
		var ok bool
		ev.SNRdB, _, ok = m.settle(link, rp.responder.Endpoint, respMid,
			phy.Lookup(basicRateMCS).Modulation, blockAckLoss, ev.snrStore[:0])
		if !ok {
			m.putBA(ev)
			continue // response lost in the channel
		}
		m.eng.At(respEnd, ev.fire)
	}
}

// getRx takes an event for rx off the free list, or makes one with its
// method value bound, once, to the engine callback it will always be.
func (m *Medium) getRx(rx *Station) *RxEvent {
	var ev *RxEvent
	if n := len(m.rxFree); n > 0 {
		ev = m.rxFree[n-1]
		m.rxFree = m.rxFree[:n-1]
	} else {
		ev = &RxEvent{m: m}
		ev.fire = ev.deliver
	}
	ev.rx = rx
	return ev
}

// deliver is the engine event of one frame arrival: the sink sees the event,
// then it goes back to the medium that made it.
func (ev *RxEvent) deliver() {
	ev.rx.deliver(ev)
	clear(ev.decStore) // no MPDU outlives its frame through the free list
	m := ev.m
	*ev = RxEvent{m: m, decStore: ev.decStore[:0], fire: ev.fire}
	m.rxFree = append(m.rxFree, ev)
}

// getBA is getRx for a response arrival.
func (m *Medium) getBA(rx *Station) *BAEvent {
	var ev *BAEvent
	if n := len(m.baFree); n > 0 {
		ev = m.baFree[n-1]
		m.baFree = m.baFree[:n-1]
	} else {
		ev = &BAEvent{m: m}
		ev.fire = ev.deliver
	}
	ev.rx = rx
	return ev
}

func (ev *BAEvent) deliver() {
	ev.rx.deliverBA(ev)
	ev.m.putBA(ev)
}

// putBA zeroes ev and returns it to the free list.
func (m *Medium) putBA(ev *BAEvent) {
	*ev = BAEvent{m: ev.m, fire: ev.fire}
	m.baFree = append(m.baFree, ev)
}

// Utilization returns the fraction of elapsed time the medium was busy.
func (m *Medium) Utilization() float64 {
	if m.eng.Now() == 0 {
		return 0
	}
	return m.BusyTime.Seconds() / m.eng.Now().Seconds()
}

// String summarizes medium statistics.
func (m *Medium) String() string {
	return fmt.Sprintf("medium{grants=%d txcoll=%d respcoll=%d/%d busy=%v}",
		m.Grants, m.TxCollisions, m.RespCollisions, m.RespTotal, m.BusyTime)
}

// drawBackoff draws a uniform backoff in [0, cw].
func (m *Medium) drawBackoff(cw int) int { return m.rnd.IntN(cw + 1) }
