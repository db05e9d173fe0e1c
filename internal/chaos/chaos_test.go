package chaos

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"wgtt/internal/backhaul"
	"wgtt/internal/packet"
	"wgtt/internal/sim"
)

func TestBuildPlanDeterministicAndSorted(t *testing.T) {
	cfg := DefaultConfig()
	horizon := 300 * sim.Second
	a := BuildPlan(cfg, sim.NewRNG(42), 6, 2, horizon)
	b := BuildPlan(cfg, sim.NewRNG(42), 6, 2, horizon)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	if a.Empty() {
		t.Fatal("default config over 5 minutes generated no events")
	}
	if !sort.SliceIsSorted(a.Events, func(i, j int) bool {
		x, y := a.Events[i], a.Events[j]
		if x.At != y.At {
			return x.At < y.At
		}
		if x.Kind != y.Kind {
			return x.Kind < y.Kind
		}
		return x.Target < y.Target
	}) {
		t.Error("plan not sorted by (At, Kind, Target)")
	}
	for _, ev := range a.Events {
		if ev.Kind != APRestart && ev.Kind != ControllerRestart && ev.At >= horizon {
			t.Fatalf("event %+v generated beyond the horizon", ev)
		}
	}
	c := BuildPlan(cfg, sim.NewRNG(43), 6, 2, horizon)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical plans")
	}
}

func TestBuildPlanPerAPStreamsIndependent(t *testing.T) {
	// AP k's crash process must not move when more APs join the plan: each
	// AP draws from its own named stream, like fleet cells.
	cfg := Config{APCrashMTBF: 30 * sim.Second, APDowntime: sim.Second}
	horizon := 600 * sim.Second
	small := BuildPlan(cfg, sim.NewRNG(7), 2, 1, horizon)
	big := BuildPlan(cfg, sim.NewRNG(7), 8, 1, horizon)
	filt := func(p Plan, id int) []Event {
		var out []Event
		for _, ev := range p.Events {
			if ev.Target == id && (ev.Kind == APCrash || ev.Kind == APRestart) {
				out = append(out, ev)
			}
		}
		return out
	}
	for id := 0; id < 2; id++ {
		if !reflect.DeepEqual(filt(small, id), filt(big, id)) {
			t.Fatalf("AP %d's crash timeline changed when the AP count changed", id)
		}
	}
}

func TestSingleAPCrashScript(t *testing.T) {
	// A script-only config yields exactly its events, in time order.
	want := []Event{
		{At: 2 * sim.Second, Kind: APCrash, Target: 3},
		{At: 2*sim.Second + 500*sim.Millisecond, Kind: APRestart, Target: 3},
	}
	cfg := Config{Script: []Event{want[1], want[0]}}
	p := BuildPlan(cfg, sim.NewRNG(1), 5, 1, 10*sim.Second)
	if !reflect.DeepEqual(p.Events, want) {
		t.Fatalf("plan = %+v, want %+v", p.Events, want)
	}
}

// fakeTarget implements Target.
type fakeTarget struct {
	down              bool
	crashes, restarts int
}

func (f *fakeTarget) Crash()     { f.down = true; f.crashes++ }
func (f *fakeTarget) Restart()   { f.down = false; f.restarts++ }
func (f *fakeTarget) Down() bool { return f.down }

// sink records backhaul deliveries.
type sink struct {
	eng  *sim.Engine
	msgs []packet.MsgType // a node may not keep a CSIReport itself
	at   []sim.Time
}

func (s *sink) HandleBackhaul(from packet.IPv4Addr, msg packet.Message) {
	s.msgs = append(s.msgs, msg.Type())
	s.at = append(s.at, s.eng.Now())
}

func TestInjectorCrashGuards(t *testing.T) {
	eng := sim.NewEngine()
	aps := []*fakeTarget{{}, {}, {}}
	targets := []Target{aps[0], aps[1], aps[2]}
	cfg := Config{
		Script: []Event{
			{At: 1 * sim.Second, Kind: APCrash, Target: 0},
			{At: 2 * sim.Second, Kind: APCrash, Target: 1}, // blocked: AP0 still down
			{At: 3 * sim.Second, Kind: APRestart, Target: 1},
			{At: 4 * sim.Second, Kind: APRestart, Target: 0},
			{At: 5 * sim.Second, Kind: APCrash, Target: 1}, // allowed again
		},
	}
	inj := NewInjector(cfg, eng, sim.NewRNG(9), targets, nil, 10*sim.Second)
	bh := backhaul.NewSwitch(eng, 200*sim.Microsecond)
	var faults []Event
	inj.OnFault = func(ev Event) { faults = append(faults, ev) }
	inj.Arm(bh)
	eng.RunUntil(10 * sim.Second)

	if aps[0].crashes != 1 || aps[1].crashes != 1 {
		t.Fatalf("crashes = %d, %d, want 1, 1 (concurrency guard)", aps[0].crashes, aps[1].crashes)
	}
	if aps[1].restarts != 0 {
		t.Fatal("restart applied for a crash the guard skipped")
	}
	if inj.Stats.CrashesSkipped != 1 {
		t.Fatalf("CrashesSkipped = %d, want 1", inj.Stats.CrashesSkipped)
	}
	if inj.Stats.APCrashes != 2 || inj.Stats.APRestarts != 1 {
		t.Fatalf("Stats = %+v", inj.Stats)
	}
	// OnFault fires only for applied events: crash, restart, crash.
	if len(faults) != 3 {
		t.Fatalf("OnFault saw %d events, want 3", len(faults))
	}
}

func TestInjectorNeverCrashesLastAliveAP(t *testing.T) {
	eng := sim.NewEngine()
	only := &fakeTarget{}
	cfg := Config{Script: []Event{{At: sim.Second, Kind: APCrash, Target: 0}}}
	inj := NewInjector(cfg, eng, sim.NewRNG(9), []Target{only}, nil, 5*sim.Second)
	inj.Arm(backhaul.NewSwitch(eng, 200*sim.Microsecond))
	eng.RunUntil(5 * sim.Second)
	if only.crashes != 0 || inj.Stats.CrashesSkipped != 1 {
		t.Fatalf("last alive AP crashed (crashes=%d skipped=%d)", only.crashes, inj.Stats.CrashesSkipped)
	}
}

func TestInjectorBurstDropsAndBlackout(t *testing.T) {
	eng := sim.NewEngine()
	bh := backhaul.NewSwitch(eng, 200*sim.Microsecond)
	rx := &sink{eng: eng}
	bh.Attach(packet.ControllerIP, rx)
	cfg := Config{
		Script: []Event{
			{At: 1 * sim.Second, Kind: BackhaulBurst, Dur: 100 * sim.Millisecond},
			{At: 2 * sim.Second, Kind: CSIBlackout, Dur: 100 * sim.Millisecond},
		},
	}
	inj := NewInjector(cfg, eng, sim.NewRNG(3), nil, nil, 5*sim.Second)
	inj.Arm(bh)

	send := func(at sim.Time, msg packet.Message) {
		eng.At(at, func() { _ = bh.Send(packet.APIP(0), packet.ControllerIP, msg) })
	}
	const inBurst = 40 // each dropped with probability burstLoss
	for i := 0; i < inBurst; i++ {
		send(1*sim.Second+sim.Time(i+1)*sim.Millisecond, &packet.HealthProbe{Seq: uint32(i)})
	}
	send(1*sim.Second+500*sim.Millisecond, &packet.HealthProbe{Seq: 100})
	send(2*sim.Second+10*sim.Millisecond, &packet.CSIReport{})           // blackout: dropped
	send(2*sim.Second+20*sim.Millisecond, &packet.HealthProbe{Seq: 101}) // blackout spares non-CSI
	send(2*sim.Second+500*sim.Millisecond, &packet.CSIReport{})
	eng.RunUntil(5 * sim.Second)

	drops := int(inj.Stats.BurstDrops)
	if drops == 0 || drops == inBurst {
		t.Fatalf("burst dropped %d of %d messages, want some but not all (loss %v)", drops, inBurst, burstLoss)
	}
	if want := inBurst - drops + 3; len(rx.msgs) != want {
		t.Fatalf("delivered %d messages, want %d (burst and blackout drop the others)", len(rx.msgs), want)
	}
	if inj.Stats.BlackoutDrops != 1 {
		t.Fatalf("Stats = %+v, want 1 blackout drop", inj.Stats)
	}
	if inj.Stats.Bursts != 1 || inj.Stats.Blackouts != 1 {
		t.Fatalf("Stats = %+v, want 1 burst and 1 blackout window", inj.Stats)
	}
}

func TestInjectorLatencySpikeDelays(t *testing.T) {
	eng := sim.NewEngine()
	bh := backhaul.NewSwitch(eng, 200*sim.Microsecond)
	rx := &sink{eng: eng}
	bh.Attach(packet.ControllerIP, rx)
	cfg := Config{Script: []Event{{At: sim.Second, Kind: LatencySpike, Dur: 100 * sim.Millisecond}}}
	inj := NewInjector(cfg, eng, sim.NewRNG(3), nil, nil, 5*sim.Second)
	inj.Arm(bh)

	eng.At(1*sim.Second+sim.Millisecond, func() {
		_ = bh.Send(packet.APIP(0), packet.ControllerIP, &packet.HealthProbe{Seq: 1})
	})
	eng.At(3*sim.Second, func() {
		_ = bh.Send(packet.APIP(0), packet.ControllerIP, &packet.HealthProbe{Seq: 2})
	})
	eng.RunUntil(5 * sim.Second)

	if len(rx.at) != 2 {
		t.Fatalf("delivered %d, want 2", len(rx.at))
	}
	if got, want := rx.at[0], 1*sim.Second+sim.Millisecond+200*sim.Microsecond+spikeExtra; got != want {
		t.Errorf("spiked delivery at %v, want %v", got, want)
	}
	if got, want := rx.at[1], 3*sim.Second+200*sim.Microsecond; got != want {
		t.Errorf("normal delivery at %v, want %v", got, want)
	}
	if inj.Stats.Spikes != 1 {
		t.Errorf("Spikes = %d, want 1", inj.Stats.Spikes)
	}
}

func TestInjectorControllerCrashRestart(t *testing.T) {
	eng := sim.NewEngine()
	ctls := []*fakeTarget{{}, {}}
	cfg := Config{Script: []Event{
		{At: sim.Second, Kind: ControllerCrash, Target: 1},
		{At: sim.Second + 100*sim.Millisecond, Kind: ControllerCrash, Target: 0}, // blocked: domain 1 down
		{At: sim.Second + 500*sim.Millisecond, Kind: ControllerRestart, Target: 1},
		{At: 2 * sim.Second, Kind: ControllerRestart, Target: 0}, // its crash was skipped
	}}
	inj := NewInjector(cfg, eng, sim.NewRNG(5), nil, []Target{ctls[0], ctls[1]}, 5*sim.Second)
	inj.Arm(backhaul.NewSwitch(eng, 200*sim.Microsecond))
	eng.RunUntil(5 * sim.Second)
	if ctls[1].crashes != 1 || ctls[1].restarts != 1 || ctls[0].crashes != 0 || ctls[0].restarts != 0 {
		t.Fatalf("domain 0 crashes=%d restarts=%d, domain 1 crashes=%d restarts=%d, want 0 0 1 1",
			ctls[0].crashes, ctls[0].restarts, ctls[1].crashes, ctls[1].restarts)
	}
	if inj.Stats.CtlCrashes != 1 || inj.Stats.CtlRestarts != 1 || inj.Stats.CtlSkipped != 1 || inj.Stats.CrashesSkipped != 0 {
		t.Fatalf("Stats = %+v", inj.Stats)
	}
}

// The controller class draws from its own per-domain streams: a federated
// plan has exactly the AP and weather events of the one-domain plan, which
// has no controller event, and domain d's timeline is exactly the crash
// process of stream chaos/controller/<d> whatever the domain count (so no
// draw is shared with another domain, an AP or a window class).
func TestControllerClassKeepsOtherStreams(t *testing.T) {
	const seed, aps = 17, 6
	horizon := 600 * sim.Second
	plan := func(domains int) Plan { return BuildPlan(DefaultConfig(), sim.NewRNG(seed), aps, domains, horizon) }
	split := func(p Plan) (ctl map[int][]Event, rest []Event) {
		ctl = map[int][]Event{}
		for _, ev := range p.Events {
			if ev.Kind == ControllerCrash || ev.Kind == ControllerRestart {
				ctl[ev.Target] = append(ctl[ev.Target], ev)
			} else {
				rest = append(rest, ev)
			}
		}
		return ctl, rest
	}
	own := func(d int) []Event {
		var evs []Event
		rnd := sim.NewRNG(seed).Stream(fmt.Sprintf("chaos/controller/%d", d))
		for at := expDraw(rnd, controllerMTBF); at < horizon; at += controllerDowntime + expDraw(rnd, controllerMTBF) {
			evs = append(evs, Event{At: at, Kind: ControllerCrash, Target: d},
				Event{At: at + controllerDowntime, Kind: ControllerRestart, Target: d})
		}
		return evs
	}
	one, want := split(plan(1))
	if len(one) != 0 {
		t.Errorf("a one-domain plan has controller events: %+v", one)
	}
	for _, domains := range []int{2, 3} {
		ctl, rest := split(plan(domains))
		if !reflect.DeepEqual(rest, want) {
			t.Fatalf("%d domains: the controller class moved AP or weather events", domains)
		}
		for d := 0; d < domains; d++ {
			if len(ctl[d]) == 0 || !reflect.DeepEqual(ctl[d], own(d)) {
				t.Errorf("%d domains: domain %d's crash timeline is not its own stream's", domains, d)
			}
		}
	}
}

// Every crash event of a plan is applied or skipped, and a restart follows
// only an applied crash (the identities Stats documents), for AP and
// controller targets alike.
func TestInjectorConservesCrashEvents(t *testing.T) {
	const aps = 6
	horizon := 600 * sim.Second
	for domains := 1; domains <= 3; domains++ {
		eng := sim.NewEngine()
		targets := func(n int) []Target {
			ts := make([]Target, n)
			for i := range ts {
				ts[i] = &fakeTarget{}
			}
			return ts
		}
		inj := NewInjector(DefaultConfig(), eng, sim.NewRNG(23), targets(aps), targets(domains), horizon)
		inj.Arm(backhaul.NewSwitch(eng, 200*sim.Microsecond))
		eng.RunUntil(horizon + controllerDowntime)

		var apPlanned, ctlPlanned uint64
		for _, ev := range inj.plan.Events {
			switch ev.Kind {
			case APCrash:
				apPlanned++
			case ControllerCrash:
				ctlPlanned++
			}
		}
		st := inj.Stats
		if st.APCrashes+st.CrashesSkipped != apPlanned || st.CtlCrashes+st.CtlSkipped != ctlPlanned {
			t.Errorf("%d domains: %d AP and %d controller crash events planned, applied or skipped %+v",
				domains, apPlanned, ctlPlanned, st)
		}
		if st.APRestarts > st.APCrashes || st.CtlRestarts > st.CtlCrashes {
			t.Errorf("%d domains: more restarts than crashes: %+v", domains, st)
		}
		if (ctlPlanned > 0) != (domains > 1) || (st.CtlCrashes > 0) != (domains > 1) {
			t.Errorf("%d domains: %d controller crash events, %d applied", domains, ctlPlanned, st.CtlCrashes)
		}
	}
}

func TestArmEmptyPlanInstallsNothing(t *testing.T) {
	eng := sim.NewEngine()
	bh := backhaul.NewSwitch(eng, 200*sim.Microsecond)
	inj := NewInjector(Config{}, eng, sim.NewRNG(1), nil, nil, 5*sim.Second)
	inj.Arm(bh)
	if bh.Drop != nil || bh.Delay != nil {
		t.Fatal("empty plan installed backhaul hooks")
	}
	if eng.Step() {
		t.Fatal("empty plan scheduled a timer")
	}
}

func TestControlLossOnlyArmsHooks(t *testing.T) {
	eng := sim.NewEngine()
	bh := backhaul.NewSwitch(eng, 200*sim.Microsecond)
	inj := NewInjector(Config{ControlLoss: 0.3}, eng, sim.NewRNG(1), nil, nil, 5*sim.Second)
	if !inj.plan.Empty() {
		t.Fatalf("control loss generated plan events: %+v", inj.plan.Events)
	}
	inj.Arm(bh)
	if bh.Drop == nil || bh.Delay == nil {
		t.Fatal("a ControlLoss-only config installed no backhaul hooks")
	}
	if eng.Step() {
		t.Fatal("a ControlLoss-only config scheduled a timer")
	}
}

func TestControlLossDropsOnlySwitchingMessages(t *testing.T) {
	const loss, n = 0.3, 2000
	eng := sim.NewEngine()
	bh := backhaul.NewSwitch(eng, 200*sim.Microsecond)
	rx := &sink{eng: eng}
	bh.Attach(packet.ControllerIP, rx)
	NewInjector(Config{ControlLoss: loss}, eng, sim.NewRNG(4), nil, nil, 5*sim.Second).Arm(bh)

	msgs := []packet.Message{
		&packet.Stop{}, &packet.Start{}, &packet.SwitchAck{},
		&packet.DownData{Pkt: &packet.Packet{ClientMAC: packet.ClientMAC(1), Bytes: 1200}},
		&packet.CSIReport{},
	}
	for i := 0; i < n; i++ {
		for _, m := range msgs {
			_ = bh.Send(packet.APIP(0), packet.ControllerIP, m)
		}
	}
	eng.RunUntil(5 * sim.Second)

	got := map[packet.MsgType]int{}
	for _, typ := range rx.msgs {
		got[typ]++
	}
	for _, typ := range []packet.MsgType{packet.MsgStop, packet.MsgStart, packet.MsgSwitchAck} {
		if rate := 1 - float64(got[typ])/n; rate < loss-0.05 || rate > loss+0.05 {
			t.Errorf("%v dropped at %.3f, want about %v", typ, rate, loss)
		}
	}
	for _, typ := range []packet.MsgType{packet.MsgDownData, packet.MsgCSI} {
		if got[typ] != n {
			t.Errorf("%v delivered %d of %d: control loss dropped it", typ, got[typ], n)
		}
	}
}

func TestControlLossDecidesBeforeBurst(t *testing.T) {
	// A stop control loss drops never reaches the burst window, so it
	// counts no burst drop.
	eng := sim.NewEngine()
	bh := backhaul.NewSwitch(eng, 200*sim.Microsecond)
	bh.Attach(packet.ControllerIP, &sink{eng: eng})
	cfg := Config{
		ControlLoss: 1,
		Script:      []Event{{At: sim.Second, Kind: BackhaulBurst, Dur: 100 * sim.Millisecond}},
	}
	inj := NewInjector(cfg, eng, sim.NewRNG(3), nil, nil, 5*sim.Second)
	inj.Arm(bh)
	for i := 1; i <= 40; i++ {
		eng.At(sim.Second+sim.Time(i)*sim.Millisecond, func() {
			_ = bh.Send(packet.APIP(0), packet.ControllerIP, &packet.Stop{SwitchID: uint32(i)})
		})
	}
	eng.RunUntil(5 * sim.Second)
	if _, dropped, _ := bh.Stats(); dropped != 40 {
		t.Fatalf("dropped %d of 40 stops at ControlLoss 1", dropped)
	}
	if inj.Stats.Bursts != 1 || inj.Stats.BurstDrops != 0 {
		t.Fatalf("Stats = %+v, want 1 burst window and no burst drop", inj.Stats)
	}
}
