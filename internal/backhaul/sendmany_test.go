package backhaul

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"wgtt/internal/packet"
	"wgtt/internal/sim"
)

// recNode records every delivery it receives, in order.
type recNode struct {
	from []packet.IPv4Addr
	msgs []packet.Message
}

func (r *recNode) HandleBackhaul(from packet.IPv4Addr, msg packet.Message) {
	r.from = append(r.from, from)
	r.msgs = append(r.msgs, keep(msg))
}

func downMsg(index uint16) *packet.DownData {
	return &packet.DownData{Pkt: &packet.Packet{
		ClientMAC: packet.ClientMAC(1), Index: index, Bytes: 1200,
	}}
}

// SendMany must be observationally identical to the per-target Send loop:
// same stats, same per-node delivery sequence, unattached targets skipped.
func TestSendManyMatchesSendLoop(t *testing.T) {
	build := func() (*sim.Engine, *Switch, []*recNode, []packet.IPv4Addr) {
		eng := sim.NewEngine()
		sw := NewSwitch(eng, 200*sim.Microsecond)
		nodes := make([]*recNode, 4)
		addrs := make([]packet.IPv4Addr, 4)
		for i := range nodes {
			nodes[i] = &recNode{}
			addrs[i] = packet.APIP(i)
			sw.Attach(addrs[i], nodes[i])
		}
		return eng, sw, nodes, addrs
	}

	unattached := packet.APIP(9)
	engA, swA, nodesA, addrs := build()
	engB, swB, nodesB, _ := build()
	for round := uint16(0); round < 3; round++ {
		tos := []packet.IPv4Addr{addrs[2], addrs[0], unattached, addrs[3]}
		for _, to := range tos {
			_ = swA.Send(packet.ControllerIP, to, downMsg(round))
		}
		swB.SendMany(packet.ControllerIP, tos, downMsg(round))
	}
	engA.Run()
	engB.Run()

	aSent, aDrop, aBytes := swA.Stats()
	bSent, bDrop, bBytes := swB.Stats()
	if aSent != bSent || aDrop != bDrop || aBytes != bBytes {
		t.Fatalf("stats diverge: Send loop (%d,%d,%d) vs SendMany (%d,%d,%d)",
			aSent, aDrop, aBytes, bSent, bDrop, bBytes)
	}
	for i := range nodesA {
		a, b := nodesA[i], nodesB[i]
		if len(a.msgs) != len(b.msgs) {
			t.Fatalf("node %d: Send loop delivered %d, SendMany %d", i, len(a.msgs), len(b.msgs))
		}
		for j := range a.msgs {
			am, bm := a.msgs[j].(*packet.DownData), b.msgs[j].(*packet.DownData)
			if am.Pkt.Index != bm.Pkt.Index || a.from[j] != b.from[j] {
				t.Fatalf("node %d msg %d: loop (%v from %v) vs many (%v from %v)",
					i, j, am.Pkt.Index, a.from[j], bm.Pkt.Index, b.from[j])
			}
		}
	}
}

// SendMany never retains msg: the caller may scribble over it the moment the
// call returns, and the delivered copies are unaffected.
func TestSendManyNonRetention(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 200*sim.Microsecond)
	n := &recNode{}
	sw.Attach(packet.APIP(0), n)

	msg := downMsg(7)
	sw.SendMany(packet.ControllerIP, []packet.IPv4Addr{packet.APIP(0)}, msg)
	msg.Pkt.Index = 999 // reuse the scratch before the engine delivers
	msg.Pkt = nil
	eng.Run()

	if len(n.msgs) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(n.msgs))
	}
	got := n.msgs[0].(*packet.DownData)
	if got.Pkt == nil || got.Pkt.Index != 7 {
		t.Fatalf("delivered copy aliased the caller's scratch: %+v", got)
	}
}

// Send and SendMany are one path: under a Drop hook that draws from an RNG
// and a Delay hook that slows some targets, N Sends and one SendMany of the
// same N targets consult the hooks for the same (hook, target) sequence and
// deliver the same (time, node, message) sequence — so a chaos run replays
// byte-identically however its senders group their sends.
func TestSendManyDropHookDeterminism(t *testing.T) {
	type call struct {
		hook string
		to   packet.IPv4Addr
	}
	type arrival struct {
		at    sim.Time
		node  int
		index uint16
	}
	run := func(useMany bool) (calls []call, got []arrival, dropped uint64) {
		eng := sim.NewEngine()
		sw := NewSwitch(eng, 200*sim.Microsecond)
		rnd := rand.New(rand.NewPCG(42, 1))
		sw.Drop = func(to packet.IPv4Addr, _ packet.Message) bool {
			calls = append(calls, call{"drop", to})
			return rnd.Float64() < 0.3
		}
		sw.Delay = func(to packet.IPv4Addr, _ packet.Message) sim.Time {
			calls = append(calls, call{"delay", to})
			// Targets 1 and 3 sit behind a slow link; 3's extra lands its
			// copy on the instant the next round's undelayed copies arrive.
			return map[packet.IPv4Addr]sim.Time{
				packet.APIP(1): 70 * sim.Microsecond, packet.APIP(3): 100 * sim.Microsecond,
			}[to]
		}
		var tos []packet.IPv4Addr
		for i := 0; i < 4; i++ {
			i := i
			sw.Attach(packet.APIP(i), NodeFunc(func(_ packet.IPv4Addr, m packet.Message) {
				got = append(got, arrival{eng.Now(), i, m.(*packet.DownData).Pkt.Index})
			}))
			tos = append(tos, packet.APIP(i))
		}
		tos = append(tos, packet.APIP(9)) // unattached: skipped, no hook call
		for round := uint16(0); round < 20; round++ {
			if useMany {
				sw.SendMany(packet.ControllerIP, tos, downMsg(round))
			} else {
				for _, to := range tos {
					_ = sw.Send(packet.ControllerIP, to, downMsg(round))
				}
			}
			eng.RunUntil(eng.Now() + 100*sim.Microsecond)
		}
		eng.Run()
		_, dropped, _ = sw.Stats()
		return calls, got, dropped
	}
	cLoop, gLoop, dLoop := run(false)
	cMany, gMany, dMany := run(true)
	if !reflect.DeepEqual(cLoop, cMany) {
		t.Errorf("hook calls diverge:\nloop %v\nmany %v", cLoop, cMany)
	}
	if !reflect.DeepEqual(gLoop, gMany) {
		t.Errorf("deliveries diverge:\nloop %v\nmany %v", gLoop, gMany)
	}
	if dLoop != dMany || dLoop == 0 || len(gLoop) == 0 || len(gLoop)+int(dLoop) != 80 {
		t.Errorf("drops: loop %d, many %d; %d delivered of 80", dLoop, dMany, len(gLoop))
	}
}

// A copy the Delay hook holds back is decoded on its own: it still carries
// its message after the undelayed delivery it was split from has fired, been
// recycled and been reused for a later message.
func TestDelayedCopyOutlivesRecycledDelivery(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 200*sim.Microsecond)
	slow := packet.APIP(1)
	sw.Delay = func(to packet.IPv4Addr, _ packet.Message) sim.Time {
		if to == slow {
			return sim.Millisecond
		}
		return 0
	}
	fast, late := &recNode{}, &recNode{}
	sw.Attach(packet.APIP(0), fast)
	sw.Attach(slow, late)

	first := &packet.CSIReport{Client: packet.ClientMAC(1), AP: packet.APIP(5), At: 11}
	first.SNRQ[3] = 77
	sw.SendMany(packet.ControllerIP, []packet.IPv4Addr{packet.APIP(0), slow}, first)
	eng.RunUntil(300 * sim.Microsecond) // the undelayed delivery fired and is free again
	if len(sw.dfree) != 1 || len(fast.msgs) != 1 || len(late.msgs) != 0 {
		t.Fatalf("free %d, fast %d, late %d before the second send", len(sw.dfree), len(fast.msgs), len(late.msgs))
	}
	second := &packet.CSIReport{Client: packet.ClientMAC(2), AP: packet.APIP(6), At: 22}
	_ = sw.Send(packet.ControllerIP, packet.APIP(0), second)
	if len(sw.dfree) != 0 {
		t.Fatal("the second send did not reuse the recycled delivery")
	}
	eng.Run()
	if !reflect.DeepEqual(fast.msgs, []packet.Message{first, second}) {
		t.Errorf("undelayed node got %+v", fast.msgs)
	}
	if !reflect.DeepEqual(late.msgs, []packet.Message{first}) {
		t.Errorf("delayed node got %+v, want the first report", late.msgs)
	}
}

// A steady-state Send allocates what a one-target SendMany does — the
// decoded Packet alone: no encode buffer, no closure, no event, no envelope.
func TestSendAllocatesOnlyTheDecodedCopy(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 200*sim.Microsecond)
	sw.Attach(packet.APIP(0), NodeFunc(func(packet.IPv4Addr, packet.Message) {}))
	msg := downMsg(1)
	send := func() {
		_ = sw.Send(packet.ControllerIP, packet.APIP(0), msg)
		eng.Run() // drain so the delivery recycles
	}
	for i := 0; i < 4; i++ {
		send()
	}
	if got := testing.AllocsPerRun(100, send); got > 1 {
		t.Fatalf("Send steady state allocates %.1f/op, want <= 1 (the decoded Packet)", got)
	}
}

// Steady-state SendMany allocates only the decoded Packet, which receivers
// retain so it cannot be pooled, and nothing per target: pooled delivery
// batches that own the envelope, reused encode scratch.
// The old per-target Send loop allocated an encode buffer plus a decoded
// copy for every target.
func TestSendManyZeroAllocPerTarget(t *testing.T) {
	measure := func(width int) float64 {
		eng := sim.NewEngine()
		sw := NewSwitch(eng, 200*sim.Microsecond)
		var tos []packet.IPv4Addr
		for i := 0; i < width; i++ {
			sw.Attach(packet.APIP(i), NodeFunc(func(packet.IPv4Addr, packet.Message) {}))
			tos = append(tos, packet.APIP(i))
		}
		msg := downMsg(1)
		send := func() {
			sw.SendMany(packet.ControllerIP, tos, msg)
			eng.Run() // drain so the delivery batch recycles
		}
		for i := 0; i < 4; i++ {
			send()
		}
		return testing.AllocsPerRun(100, send)
	}
	narrow, wide := measure(2), measure(64)
	if narrow != wide {
		t.Fatalf("allocations scale with fan-out width: %.1f/op at 2 targets, %.1f/op at 64", narrow, wide)
	}
	if wide > 1 {
		t.Fatalf("SendMany steady state allocates %.1f/op, want <= 1 (the decoded Packet)", wide)
	}
}

// fakePort is a remote port that routes a fixed set and records what it is
// handed instead of writing it, in wrote and, if set, in the shared log.
type fakePort struct {
	routes map[packet.IPv4Addr]bool
	wrote  []packet.IPv4Addr
	log    *[]string
}

func (f *fakePort) Routes(to packet.IPv4Addr) bool { return f.routes[to] }

func (f *fakePort) Write(_, to packet.IPv4Addr, _ []byte) error {
	f.wrote = append(f.wrote, to)
	if f.log != nil {
		*f.log = append(*f.log, "write "+to.String())
	}
	return nil
}

// The remote half of TestSendManyDropHookDeterminism: over [local, remote,
// local, remote, unknown] the Drop and Delay hooks are consulted once per
// known target, in target order, whichever side of the port it is on; a
// dropped copy is counted dropped and neither delivered nor handed over; an
// undelayed remote copy is handed over where the loop reaches it, a delayed
// one by an event of its own; sent and bytes count each copy delivered or handed
// over; and a remote-only send decodes nothing.
func TestSendManyConsultsLocalAndRemoteOnce(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 200*sim.Microsecond)
	l0, r1, l2, r3, unknown := packet.APIP(0), packet.APIP(1), packet.APIP(2), packet.APIP(3), packet.APIP(9)
	port := &fakePort{routes: map[packet.IPv4Addr]bool{r1: true, r3: true}}
	sw.Remote = port
	n0, n2 := &recNode{}, &recNode{}
	sw.Attach(l0, n0)
	sw.Attach(l2, n2)
	var calls []string
	port.log = &calls
	drop := map[packet.IPv4Addr]bool{}
	delay := map[packet.IPv4Addr]sim.Time{}
	sw.Drop = func(to packet.IPv4Addr, _ packet.Message) bool {
		calls = append(calls, "drop "+to.String())
		return drop[to]
	}
	sw.Delay = func(to packet.IPv4Addr, _ packet.Message) sim.Time {
		calls = append(calls, "delay "+to.String())
		return delay[to]
	}
	tos := []packet.IPv4Addr{l0, r1, l2, r3, unknown}
	size := uint64(3 + downMsg(0).WireSize())

	// Round 1: drop the second local and the second remote copy.
	drop[l2], drop[r3] = true, true
	sw.SendMany(packet.ControllerIP, tos, downMsg(1))
	want := []string{"drop " + l0.String(), "delay " + l0.String(), "drop " + r1.String(), "delay " + r1.String(),
		"write " + r1.String(), "drop " + l2.String(), "drop " + r3.String()}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("hook calls %v, want %v", calls, want)
	}
	if !reflect.DeepEqual(port.wrote, []packet.IPv4Addr{r1}) {
		t.Fatalf("handed to the port within the send: %v, want [%v]", port.wrote, r1)
	}
	eng.Run()
	if len(n0.msgs) != 1 || len(n2.msgs) != 0 {
		t.Fatalf("delivered %d to %v, %d to the dropped %v", len(n0.msgs), l0, len(n2.msgs), l2)
	}
	if sent, dropped, bytes := sw.Stats(); sent != 2 || dropped != 2 || bytes != 2*size {
		t.Fatalf("stats %d sent, %d dropped, %d bytes; want 2, 2, %d", sent, dropped, bytes, 2*size)
	}

	// Round 2: the remote copy is delayed; it is handed over when its own
	// event fires, a millisecond after the undelayed local delivery.
	clear(drop)
	delay[r1] = sim.Millisecond
	port.wrote = nil
	sw.SendMany(packet.ControllerIP, []packet.IPv4Addr{l0, r1}, downMsg(2))
	eng.RunUntil(eng.Now() + 500*sim.Microsecond)
	if len(port.wrote) != 0 || len(n0.msgs) != 2 {
		t.Fatalf("before the delay: port got %v, %v got %d", port.wrote, l0, len(n0.msgs))
	}
	eng.Run()
	if !reflect.DeepEqual(port.wrote, []packet.IPv4Addr{r1}) {
		t.Fatalf("delayed copy handed over as %v", port.wrote)
	}
	if sent, _, bytes := sw.Stats(); sent != 4 || bytes != 4*size {
		t.Fatalf("stats %d sent, %d bytes; want 4, %d", sent, bytes, 4*size)
	}

	// A remote-only send decodes nothing: a HealthProbe's decode would
	// allocate its message.
	sw.Drop, sw.Delay, port.log = nil, nil, nil
	probe := &packet.HealthProbe{Seq: 1}
	send := func() {
		port.wrote = port.wrote[:0]
		_ = sw.Send(packet.ControllerIP, r1, probe)
	}
	send()
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("remote-only Send allocates %.1f/op, want 0", allocs)
	}
}

// SendMany resolves a target list once and reuses its nodes while the next
// list is equal; Attach clears that. Over random Attaches of new and live
// addresses, target lists that repeat, change or are rewritten in place
// by the caller, unicast Sends between them and Drop/Delay hooks armed and
// disarmed, a switch must deliver, count and consult its hooks exactly as a
// reference that looks up every copy's node in nodes at the send.
func TestSendManyMemoMatchesPerCopyLookup(t *testing.T) {
	type event struct {
		at    sim.Time
		what  string
		to    packet.IPv4Addr
		node  int // the delivering node's Attach, counted from 1
		index uint16
	}
	run := func(seed uint64, perCopy bool) (log []event, stats [4]uint64) {
		eng := sim.NewEngine()
		sw := NewSwitch(eng, 200*sim.Microsecond)
		ops := rand.New(rand.NewPCG(seed, 7))  // the operation sequence, the same on both sides
		hook := rand.New(rand.NewPCG(seed, 8)) // the hooks' draws
		pool := make([]packet.IPv4Addr, 10)    // addresses 8 and 9 are never attached
		for i := range pool {
			pool[i] = packet.APIP(i)
		}
		attaches := 0
		attach := func(addr packet.IPv4Addr) {
			attaches++
			node := attaches
			sw.Attach(addr, NodeFunc(func(_ packet.IPv4Addr, m packet.Message) {
				log = append(log, event{eng.Now(), "deliver", addr, node, m.(*packet.DownData).Pkt.Index})
			}))
		}
		var tos []packet.IPv4Addr
		for step := 0; step < 3000; step++ {
			switch op := ops.IntN(100); {
			case op < 5: // attach, or replace the node of a live address
				attach(pool[ops.IntN(8)])
			case op < 15: // a new list, of any length, repeats and unattached addresses allowed
				tos = tos[:0]
				for n := ops.IntN(7); n > 0; n-- {
					tos = append(tos, pool[ops.IntN(len(pool))])
				}
			case op < 20: // the caller rewrites its list in place
				if len(tos) > 0 {
					tos[ops.IntN(len(tos))] = pool[ops.IntN(len(pool))]
				}
			case op < 25: // a unicast Send between the fan-outs
				_ = sw.Send(packet.ControllerIP, pool[ops.IntN(len(pool))], downMsg(uint16(step)))
			case op < 30: // arm or disarm the hooks
				if sw.Drop != nil {
					sw.Drop, sw.Delay = nil, nil
					break
				}
				sw.Drop = func(to packet.IPv4Addr, _ packet.Message) bool {
					log = append(log, event{eng.Now(), "drop", to, 0, 0})
					return hook.Float64() < 0.2
				}
				sw.Delay = func(to packet.IPv4Addr, _ packet.Message) sim.Time {
					log = append(log, event{eng.Now(), "delay", to, 0, 0})
					return sim.Time(hook.IntN(3)) * 100 * sim.Microsecond
				}
			case op < 40:
				eng.RunUntil(eng.Now() + sim.Time(ops.IntN(400))*sim.Microsecond)
			default: // a fan-out of the current list
				msg := downMsg(uint16(step))
				if !perCopy {
					sw.SendMany(packet.ControllerIP, tos, msg)
					break
				}
				nodes := make([]Node, len(tos))
				for i, to := range tos {
					nodes[i] = sw.nodes[to]
				}
				_ = sw.send(packet.ControllerIP, tos, nodes, msg)
			}
		}
		eng.Run()
		sent, dropped, bytes := sw.Stats()
		return log, [4]uint64{sent, dropped, bytes, sw.Unrouted()}
	}
	for seed := uint64(1); seed <= 5; seed++ {
		refLog, refStats := run(seed, true)
		log, stats := run(seed, false)
		if stats != refStats {
			t.Errorf("seed %d: sent, dropped, bytes, unrouted = %v, per-copy lookup %v", seed, stats, refStats)
		}
		if len(log) != len(refLog) {
			t.Errorf("seed %d: %d hook calls and deliveries, per-copy lookup %d", seed, len(log), len(refLog))
		}
		for i := range min(len(log), len(refLog)) {
			if log[i] != refLog[i] {
				t.Fatalf("seed %d: event %d is %+v, per-copy lookup %+v", seed, i, log[i], refLog[i])
			}
		}
		if refStats[1] == 0 || refStats[3] == 0 {
			t.Errorf("seed %d: nothing dropped or nothing unrouted: %v", seed, refStats)
		}
	}
}
