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
