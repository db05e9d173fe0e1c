package ap

import (
	"math/rand/v2"
	"slices"
	"testing"

	"wgtt/internal/backhaul"
	"wgtt/internal/mac"
	"wgtt/internal/packet"
	"wgtt/internal/sim"
)

// ringOps encodes FuzzRingConservation steps, each {op, AP, k}.
func ringOps(steps ...[3]uint16) []byte {
	var b []byte
	for _, s := range steps {
		b = append(b, byte(s[0]<<1|s[1]), byte(s[2]>>4), byte(s[2]&0xf))
	}
	return b
}

// FuzzRingConservation drives two APs through random sequences of
// enqueues (in order, and at any index), stops, starts at any k, crashes,
// restarts, aligns, serving flips and idle gaps long enough to go stale, with
// the radio delivering in between, and holds both APs' ring and MPDU laws
// after every step: each packet and MPDU leaves through exactly one counter.
func FuzzRingConservation(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 2, 0, 0, 0, 3, 10, 0, 0})
	f.Add([]byte{1, 0x80, 0x10, 0, 0, 0, 7, 200, 0, 0, 3, 0x40})
	f.Add([]byte{0, 0, 4, 0, 0, 5, 6, 7, 0, 1, 0xff, 0x0f, 8, 0, 0})
	f.Add([]byte{0, 0, 0, 2, 0, 0, 7, 255, 7, 255, 7, 255, 7, 255, 0, 0, 1, 3, 9})
	// On the non-serving AP, after three packets of the stream: a fan-out
	// gap jump over the backlog bound (the oldest are trimmed), one past
	// half the space (the reader is resynchronized past them), and a start
	// that puts the reader far ahead of the head, which later arrivals fall
	// short of and then pass. Then a gap jump to one short of the bound and
	// in-order arrivals, the second of which laps the reader (the overflow
	// drop); a stale-ring resync past the backlog; a start behind the
	// serving AP's reader (the re-send) and one ahead of the other AP's
	// (handing it what it passes); and a gap jump over an entry an
	// AlignQueue left behind the head (a previous lap's, queued again).
	// Booking any of these moves twice breaks the ring law.
	in := [][3]uint16{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}
	f.Add(ringOps(append(in, [3]uint16{1, 1, 2000})...))
	f.Add(ringOps(append(in, [3]uint16{1, 1, 2049})...))
	f.Add(ringOps(append(in, [3]uint16{3, 1, 1000}, [3]uint16{7, 1, 20}, [3]uint16{1, 1, 500}, [3]uint16{1, 1, 1500})...))
	f.Add(ringOps(append(in, [3]uint16{1, 1, 1982}, [3]uint16{1, 1, 1983}, [3]uint16{1, 1, 1984})...))
	f.Add(ringOps(append(in, [3]uint16{7, 0, 2000}, [3]uint16{0, 0, 0})...))
	f.Add(ringOps(append(in, [3]uint16{7, 0, 20}, [3]uint16{3, 0, 0}, [3]uint16{7, 0, 20})...))
	f.Add(ringOps(append(in, [3]uint16{3, 1, 2}, [3]uint16{7, 1, 20})...))
	f.Add(ringOps(append(in, [3]uint16{1, 1, 10}, [3]uint16{6, 1, 5}, [3]uint16{1, 1, 20})...))
	f.Fuzz(func(t *testing.T, ops []byte) {
		h := newAPHarness(t, 2, 20)
		client := packet.ClientMAC(1)
		h.aps[0].Associate(client, packet.ClientIP(1), true)
		h.aps[1].Associate(client, packet.ClientIP(1), false)
		var next uint16 // the controller's index cursor
		arg := func(i int) uint16 {
			if i < len(ops) {
				return uint16(ops[i])
			}
			return 0
		}
		for i := 0; i < len(ops) && i < 600; i += 3 {
			a := h.aps[ops[i]&1]
			k := (arg(i+1)<<4 | arg(i+2)) & packet.IndexMask
			switch (ops[i] >> 1) % 9 {
			case 0: // the next packet of the stream, to both APs
				p := &packet.Packet{ClientMAC: client, Bytes: 1400, Index: next}
				for _, b := range h.aps {
					b.HandleBackhaul(packet.ControllerIP, &packet.DownData{Pkt: p})
				}
				next = packet.NextIndex(next)
			case 1: // a packet at any index, to one AP
				a.HandleBackhaul(packet.ControllerIP, &packet.DownData{Pkt: &packet.Packet{ClientMAC: client, Bytes: 1400, Index: k}})
			case 2: // stop(c) toward the other AP
				other := h.aps[1-ops[i]&1].Config().IP
				_ = h.bh.Send(packet.ControllerIP, a.Config().IP, &packet.Stop{Client: client, NextAP: other, SwitchID: uint32(i)})
			case 3: // start(c, k) at any k
				_ = h.bh.Send(packet.ControllerIP, a.Config().IP, &packet.Start{Client: client, Index: k, SwitchID: uint32(i)})
			case 4:
				a.Crash()
			case 5:
				a.Restart()
			case 6:
				a.AlignQueue(client, k)
			case 7: // idle: up to 2.5 s, past staleRingAfter
				h.eng.RunUntil(h.eng.Now() + sim.Time(k)*sim.Millisecond)
			case 8:
				a.Associate(client, packet.ClientIP(1), k&1 == 1)
			}
			h.eng.RunUntil(h.eng.Now() + sim.Millisecond)
			for _, b := range h.aps {
				if err := b.Conserved(); err != nil {
					t.Fatalf("op %d (%v): %v", i/3, ops[i:min(i+3, len(ops))], err)
				}
			}
		}
		h.eng.RunUntil(h.eng.Now() + 100*sim.Millisecond)
	})
}

// A restart rebuilds every client in place through the constructor a first
// association uses: nothing queued, no drain pending, MAC, IP, the state's
// address and the round-robin order kept.
func TestRestartRebuildsClientState(t *testing.T) {
	h := newAPHarness(t, 1, 20)
	a := h.aps[0]
	for id := 1; id <= 3; id++ {
		a.Associate(packet.ClientMAC(id), packet.ClientIP(id), true)
	}
	h.pushDownlink(40, 0)
	cs := a.client(packet.ClientMAC(1))
	cs.drainPending, cs.drainSwitchID, cs.drainCount = true, 7, 3
	rr := slices.Clone(a.rr)
	a.Crash()
	a.Restart()
	for i, cs := range a.rr {
		if cs != rr[i] || a.clients[cs.mac] != cs {
			t.Fatalf("client %d rebuilt at %p, was %p", i, cs, rr[i])
		}
	}
	for id := 1; id <= 3; id++ {
		cs := a.client(packet.ClientMAC(id))
		fresh := newClientState(packet.ClientMAC(id), packet.ClientIP(id))
		if cs.ip != fresh.ip || cs.mac != fresh.mac || cs.drainPending || cs.drainSwitchID != 0 ||
			cs.drainCount != 0 || cs.haveAny || cs.serving || a.QueueDepth(cs.mac) != 0 {
			t.Errorf("client %d not rebuilt cold: %+v", id, *cs)
		}
	}
}

// A client's state keeps its address across a Restart, so whichever client
// the AP looked up last, a packet enqueued after one lands in the rebuilt
// ring and frames are built from it: two clients interleaved, packet by
// packet, and a restart while each is the one looked up last, followed by
// that client's enqueue.
func TestRestartKeepsClientLookup(t *testing.T) {
	h := newAPHarness(t, 1, 20)
	a := h.aps[0]
	clients := []packet.MACAddr{packet.ClientMAC(1), packet.ClientMAC(2)}
	queued := map[packet.MACAddr][]*packet.Packet{} // enqueued since the last restart, not yet framed
	next := uint16(0)
	for round := 0; round < 60; round++ {
		if round == 20 || round == 41 { // client 1's round, then client 2's
			a.QueueDepth(clients[round%2]) // the last lookup
			a.Crash()
			a.Restart()
			clear(queued)
		}
		for i := range clients {
			c := clients[(round+i)%2]
			p := &packet.Packet{ClientMAC: c, Bytes: 1400, Index: next}
			a.HandleBackhaul(packet.ControllerIP, &packet.DownData{Pkt: p})
			if cs := a.clients[c]; cs.ring[next] != p || a.lookup(c) != cs {
				t.Fatalf("round %d: %v's packet %d missed the ring of record", round, c, next)
			}
			queued[c] = append(queued[c], p)
		}
		for i, c := range clients {
			a.Associate(c, packet.ClientIP(i+1), true)
		}
		next++
		for range round % 3 { // none, one or two frames a round
			fr := a.BuildFrame()
			if fr == nil {
				break
			}
			for _, mp := range fr.MPDUs {
				if q := queued[fr.To]; len(q) == 0 || mp.Pkt != q[0] {
					t.Fatalf("round %d: frame to %v carries %v, want the head of %v", round, fr.To, mp.Pkt, q)
				}
				queued[fr.To] = queued[fr.To][1:]
			}
			a.OnTxDone(&mac.TxResult{Frame: fr, BAReceived: true, SSN: fr.MPDUs[0].Seq, Bitmap: ^uint64(0)})
		}
		if err := a.Conserved(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	for fr := a.BuildFrame(); fr != nil; fr = a.BuildFrame() {
		for range fr.MPDUs {
			queued[fr.To] = queued[fr.To][1:]
		}
		a.OnTxDone(&mac.TxResult{Frame: fr, BAReceived: true, SSN: fr.MPDUs[0].Seq, Bitmap: ^uint64(0)})
	}
	for _, c := range clients {
		if len(queued[c]) != 0 {
			t.Errorf("%v: %d packets never framed", c, len(queued[c]))
		}
	}
	if a.Stats.DownWiped == 0 || a.Stats.MPDUsDelivered == 0 {
		t.Errorf("nothing wiped or nothing delivered: %+v", a.Stats)
	}
}

// Each cursor move is counted over the indices it crosses, so the ring law
// moves in step on every path — an exit booked twice, or not at all, breaks
// it — and each move books the term that names it. The client is not
// served, so a passed-over packet is trimmed rather than overwritten.
func TestRingCountsEachCursorMove(t *testing.T) {
	span := func(from, to uint16) []uint16 {
		var s []uint16
		for i := from; i != to; i = packet.NextIndex(i) {
			s = append(s, i)
		}
		return s
	}
	// full has every slot written, so the ring counts without loading one.
	full := append(span(0, cyclicQueueSlots-1), cyclicQueueSlots-1)
	// rewritten writes 1,000 slots 4,095 times: with the arrival, one write
	// per slot of the ring, which is still not full.
	var rewritten []uint16
	for len(rewritten) < cyclicQueueSlots {
		rewritten = append(rewritten, span(0, 1000)...)
	}
	rewritten = rewritten[:cyclicQueueSlots-1]
	const dup, start = -1, -2 // arrival: a duplicate of slot 150's packet; a start(c, k)
	for _, tc := range []struct {
		name                      string
		next, head                uint16
		stored                    []uint16
		stale                     bool
		arrive                    int // index of the arrival, dup or start
		k                         uint16
		rewound, skipped, trimmed uint64
		queued                    uint64
	}{
		{"in order at the bound trims the oldest", 0, 1984, span(0, 1984), false, 1984, 0, 0, 0, 1, 1984},
		{"a fan-out gap re-queues a previous lap", 0, 10, append(span(0, 10), 20), false, 30, 0, 1, 0, 0, 12},
		{"a gap jump over the bound trims the oldest", 0, 1000, span(0, 1000), false, 2000, 0, 0, 0, 17, 984},
		{"a gap jump past half the space resyncs the reader", 0, 1000, span(0, 1000), false, 2500, 0, 0, 517, 0, 484},
		{"a full half-space jump lands on the reader", 0, 2048, span(0, 10), false, 4095, 0, 0, 11, 0, 0},
		{"the head passes a reader a start put ahead", 3000, 2000, span(2990, 3010), false, 3500, 0, 10, 0, 0, 11},
		{"the head lands on a reader a start put ahead", 3000, 2000, span(2990, 3010), false, 2999, 0, 0, 1, 0, 0},
		{"the head falls short of a reader a start put ahead", 3000, 2000, span(1000, 1010), false, 2500, 0, 11, 1, 0, 11},
		{"an arrival behind the reader is never sent", 100, 200, span(100, 200), false, 50, 0, 0, 1, 0, 100},
		{"an arrival behind the head replaces an unsent packet", 100, 200, span(100, 200), false, 150, 0, 0, 0, 1, 100},
		{"a duplicate of a queued packet is never sent", 100, 200, span(100, 200), false, dup, 0, 0, 1, 0, 100},
		{"an idle ring resyncs past its backlog", 0, 10, span(0, 10), true, 500, 0, 0, 10, 0, 1},
		{"an idle ring's arrival into its backlog", 0, 10, span(0, 10), true, 5, 0, 0, 9, 1, 1},
		{"a start behind the reader re-sends", 100, 200, span(0, 200), false, start, 40, 60, 0, 0, 160},
		{"a start ahead of the reader hands the rest to the old AP", 100, 200, span(0, 200), false, start, 150, 0, 50, 0, 50},
		{"a start past the write head passes the backlog over", 100, 200, span(0, 200), false, start, 300, 0, 100, 0, 0},
		{"a start back from far ahead queues again", 300, 200, span(0, 200), false, start, 100, 100, 0, 0, 100},
		{"in order at the bound on a full ring", 0, 1984, full, false, 1984, 0, 0, 0, 1, 1984},
		{"a gap jump over the bound on a full ring", 0, 1000, full, false, 2000, 0, 1000, 0, 17, 1984},
		{"a start behind the reader on a full ring", 100, 200, full, false, start, 40, 60, 0, 0, 160},
		{"a gap jump over the bound on a rewritten ring", 0, 1000, rewritten, false, 2000, 0, 0, 0, 17, 984},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			a := New(DefaultConfig(0, testBSSID), eng, backhaul.NewSwitch(eng, 0), nil, packet.ControllerIP, rand.New(rand.NewPCG(1, 2)))
			m := packet.ClientMAC(1)
			cs := a.client(m)
			cs.haveAny, cs.nextSend, cs.head = true, tc.next, tc.head
			for _, i := range tc.stored {
				cs.put(&packet.Packet{ClientMAC: m, Index: i})
			}
			eng.RunUntil(2 * sim.Second)
			if !tc.stale {
				cs.lastEnqueue = eng.Now()
			}
			before, queued := a.Stats, cs.queued()
			switch tc.arrive {
			case start:
				a.moveReader(cs, tc.k)
			case dup:
				a.enqueueDownlink(cs.ring[150])
			default:
				a.enqueueDownlink(&packet.Packet{ClientMAC: m, Index: uint16(tc.arrive)})
			}
			st := a.Stats
			in := st.DownEnqueued - before.DownEnqueued + st.RewindDepth - before.RewindDepth
			out := st.DownSkipped - before.DownSkipped + st.DownTrimmed - before.DownTrimmed + cs.queued()
			if in+queued != out {
				t.Errorf("ring law: %d queued + %d in, but %d out or queued", queued, in, out)
			}
			if got := [4]uint64{st.RewindDepth - before.RewindDepth, st.DownSkipped - before.DownSkipped,
				st.DownTrimmed - before.DownTrimmed, cs.queued()}; got != [4]uint64{tc.rewound, tc.skipped, tc.trimmed, tc.queued} {
				t.Errorf("rewound, skipped, trimmed, queued = %v, want %v", got, [4]uint64{tc.rewound, tc.skipped, tc.trimmed, tc.queued})
			}
		})
	}
}
