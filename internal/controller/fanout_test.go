package controller

import (
	"math/rand/v2"
	"testing"

	"wgtt/internal/backhaul"
	"wgtt/internal/packet"
	"wgtt/internal/sim"
)

func sameTargets(a, b []packet.IPv4Addr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Randomized CSI / death / recovery / handoff sequences: after every
// operation the targets must hold the fan-out rule's properties — the
// serving AP is a target exactly when it is alive, every other target is
// alive and heard within FanoutWindow, targets ascend by AP position, and
// before any AP has heard the client every alive AP is a target.
func TestFanoutEquivalenceRandomized(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		rnd := rand.New(rand.NewPCG(seed, 99))
		const nAPs = 9
		h := newCtlHarness(t, nAPs, DefaultConfig().WithHealth())
		c := h.ctl
		client := packet.ClientMAC(1)
		c.RegisterClient(client, packet.ClientIP(1), 0)
		cl := c.clients[client]

		check := func(step int) {
			now := h.eng.Now()
			got, _ := c.fanTargets(cl, now)
			heard, servingIn := false, false
			for _, e := range cl.heardEver {
				heard = heard || e
			}
			prev := -1
			for _, ip := range got {
				s := c.ipToAP[ip]
				if s <= prev {
					t.Fatalf("seed %d step %d: targets %v not ascending", seed, step, got)
				}
				prev = s
				if !c.apAlive(s) {
					t.Fatalf("seed %d step %d: dead AP %d in targets %v", seed, step, s, got)
				}
				if s == cl.serving {
					servingIn = true
				} else if heard && (!cl.heardEver[s] || now-cl.lastHeard[s] > c.cfg.FanoutWindow) {
					t.Fatalf("seed %d step %d: AP %d not heard within FanoutWindow, in targets %v",
						seed, step, s, got)
				}
			}
			if servingIn != c.apAlive(cl.serving) {
				t.Fatalf("seed %d step %d: serving AP %d alive=%v, in targets=%v",
					seed, step, cl.serving, c.apAlive(cl.serving), servingIn)
			}
			if !heard {
				alive := 0
				for s := range c.aps {
					if c.apAlive(s) {
						alive++
					}
				}
				if len(got) != alive {
					t.Fatalf("seed %d step %d: bootstrap targets %v, want all %d alive APs",
						seed, step, got, alive)
				}
			}
		}

		for step := 0; step < 2000; step++ {
			switch op := rnd.IntN(100); {
			case op < 55: // CSI heard from a random AP
				ap := rnd.IntN(nAPs)
				c.sel.Observe(client, ap, 10, h.eng.Now())
				cl.fanHeard(ap, h.eng.Now())
			case op < 75: // time passes (can expire fan-out members)
				h.eng.RunUntil(h.eng.Now() + sim.Time(rnd.IntN(60))*sim.Millisecond)
			case op < 85: // AP dies or is re-admitted
				ap := rnd.IntN(nAPs)
				c.health[ap].alive = rnd.IntN(2) == 0
			case op < 93: // the serving AP moves (switch / forced failover)
				cl.serving = rnd.IntN(nAPs)
			case op < 97: // federation hands evidence in (adoption seeding)
				c.SeedESNR(client, rnd.IntN(nAPs), 12)
			default: // controller crash + restart: all soft state cold
				c.Crash()
				c.Restart()
				cl = c.clients[client]
			}
			check(step)
		}
	}
}

// The steady-state fan-out path — the recency scan, target emission, and
// the fabric hand-off — must not allocate.
func TestFanoutZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	fab := &countingFanFabric{}
	infos := make([]APInfo, 32)
	for i := range infos {
		infos[i] = APInfo{ID: i, IP: packet.APIP(i), MAC: packet.APMAC(i)}
	}
	ctl := New(DefaultConfig(), eng, fab, infos)
	client := packet.ClientMAC(1)
	ctl.RegisterClient(client, packet.ClientIP(1), 0)
	cl := ctl.clients[client]
	for ap := 0; ap < 32; ap++ {
		cl.fanHeard(ap, eng.Now())
	}
	p := &packet.Packet{ClientMAC: client, Bytes: 1200}
	// Warm the scratch buffers, then pin.
	for i := 0; i < 4; i++ {
		_ = ctl.SendDownlink(p)
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = ctl.SendDownlink(p)
	})
	if allocs != 0 {
		t.Fatalf("SendDownlink steady state allocates %.1f/op, want 0", allocs)
	}
	if fab.packets == 0 || fab.copies != fab.packets*32 {
		t.Fatalf("fan-out fabric saw %d packets / %d copies", fab.packets, fab.copies)
	}
}

// countingFanFabric is a null fabric: it counts what the controller
// hands it and delivers nothing.
type countingFanFabric struct {
	packets int
	copies  int
}

func (f *countingFanFabric) Attach(packet.IPv4Addr, backhaul.Node) {}
func (f *countingFanFabric) Send(_, _ packet.IPv4Addr, _ packet.Message) error {
	f.packets++
	f.copies++
	return nil
}
func (f *countingFanFabric) SendMany(_ packet.IPv4Addr, tos []packet.IPv4Addr, _ packet.Message) {
	f.packets++
	f.copies += len(tos)
}

// Targets come out in ascending AP order with the serving AP at its sorted
// position — delivery order is part of the determinism contract.
func TestFanoutServingMergedInOrder(t *testing.T) {
	h := newCtlHarness(t, 6, DefaultConfig())
	client := packet.ClientMAC(1)
	h.ctl.RegisterClient(client, packet.ClientIP(1), 3)
	cl := h.ctl.clients[client]
	for _, ap := range []int{5, 1, 4} {
		cl.fanHeard(ap, h.eng.Now())
	}
	want := []packet.IPv4Addr{packet.APIP(1), packet.APIP(3), packet.APIP(4), packet.APIP(5)}
	if got, _ := h.ctl.fanTargets(cl, h.eng.Now()); !sameTargets(got, want) {
		t.Fatalf("targets = %v, want %v", got, want)
	}

	// The serving AP stays a target after its recency expires, and only
	// the one AP heard since counts as heard within FanoutWindow.
	h.eng.RunUntil(h.eng.Now() + h.ctl.cfg.FanoutWindow + sim.Millisecond)
	cl.fanHeard(1, h.eng.Now())
	want = []packet.IPv4Addr{packet.APIP(1), packet.APIP(3)}
	if got, fresh := h.ctl.fanTargets(cl, h.eng.Now()); !sameTargets(got, want) || fresh != 1 {
		t.Fatalf("after expiry: targets = %v, %d heard; want %v, 1", got, fresh, want)
	}
}

// An adopted client's fan-out is rebuilt from the handoff evidence:
// every seeded AP fans out immediately, without waiting for fresh CSI.
func TestAdoptionCarriesFanoutSet(t *testing.T) {
	h := newCtlHarness(t, 5, DefaultConfig())
	client := packet.ClientMAC(7)
	h.ctl.AdoptClient(client, packet.ClientIP(7), 2, 100, nil)
	h.ctl.SeedESNR(client, 0, 15)
	h.ctl.SeedESNR(client, 4, 12)
	cl := h.ctl.clients[client]
	want := []packet.IPv4Addr{packet.APIP(0), packet.APIP(2), packet.APIP(4)}
	if got, _ := h.ctl.fanTargets(cl, h.eng.Now()); !sameTargets(got, want) {
		t.Fatalf("adopted targets = %v, want %v", got, want)
	}
}

// Restart drops the recency evidence with the rest of the soft state: the
// restarted controller fans out broadly until CSI re-populates it.
func TestRestartResetsFanout(t *testing.T) {
	h := newCtlHarness(t, 4, DefaultConfig())
	client := packet.ClientMAC(1)
	h.ctl.RegisterClient(client, packet.ClientIP(1), 0)
	h.ctl.clients[client].fanHeard(2, h.eng.Now())
	h.ctl.Crash()
	h.ctl.Restart()
	cl := h.ctl.clients[client]
	if cl.heardEver[2] {
		t.Fatal("fan-out evidence survived Restart")
	}
	want := []packet.IPv4Addr{packet.APIP(0), packet.APIP(1), packet.APIP(2), packet.APIP(3)}
	if got, _ := h.ctl.fanTargets(cl, h.eng.Now()); !sameTargets(got, want) {
		t.Fatalf("post-restart bootstrap targets = %v, want %v", got, want)
	}
}
