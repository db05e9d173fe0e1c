package main

import (
	"fmt"
	"hash/fnv"
	"runtime"

	"wgtt/internal/ap"
	"wgtt/internal/backhaul"
	"wgtt/internal/controller"
	"wgtt/internal/core"
	"wgtt/internal/fleet"
	"wgtt/internal/metrics"
	"wgtt/internal/mobility"
	"wgtt/internal/packet"
	wrt "wgtt/internal/runtime"
	"wgtt/internal/sim"
	"wgtt/internal/urban"
)

// counts is what one rep's harvest reads from the public counters. The
// end-to-end outcome fields feed goodput_mbps / delivered_frac and the
// output checks; the rest feed the per-layer ratios. A field a workload
// cannot read from outside stays zero.
type counts struct {
	units      float64 // work units this rep (client-seconds; k AP copies)
	simSeconds float64

	offered      uint64 // datagrams/segments handed to the network
	delivered    uint64 // datagrams/segments that reached their receiver
	payloadBytes uint64 // payload bytes that reached receivers

	events uint64 // sim.Engine.Fired

	grants, txColl, respColl, respTotal uint64 // mac.Medium
	airtimeFrac                         float64

	apEnqueued, apOverwritten, apDelivered, apDropped, apBAForwarded uint64

	bhMsgs, bhBytes uint64 // backhaul.Switch.Stats

	csiReports, switchesStarted, switchesDone uint64
	downlinkSent, downlinkCopies              uint64
	uplinkUnique, uplinkDup                   uint64
	switchMS                                  []float64 // controller.History durations

	clientMPDUs, clientDupes uint64
	tcpTimeouts              uint64

	migrations, handoffWireBytes uint64
	seamOutageMS                 float64

	digest uint64   // bit-exact fingerprint of the simulated outcome
	failed []string // output checks that did not hold on this rep
	checks int      // output checks evaluated on this rep
}

// check records one output check (an operation for the failed-share rule).
func (c *counts) check(ok bool, format string, args ...any) {
	c.checks++
	if !ok {
		c.failed = append(c.failed, fmt.Sprintf(format, args...))
	}
}

// world is one rep's freshly built simulation.
type world interface {
	// run advances the simulation to its end, calling lap after each step
	// (about a millisecond of host time where the layer's public functions
	// allow steps that short) so the harness can interleave reference
	// passes.
	run(lap func(span string)) error
	harvest() counts
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	unit string // what one work unit is; BENCHMARK.json says why the workload is here
	// speedMPH is the scenario speed the direct-call timings take their
	// Doppler from.
	speedMPH float64
	// build assembles a world for one seed; its wall time is setup_s. A
	// non-nil tracer asks for the world's own metrics registry as well.
	// simFrac scales the simulated duration; it is 1 everywhere but in the
	// smoke test, and no flag sets it.
	build func(seed uint64, simFrac float64, tr *tracer) (world, error)
	// crossCheck, when set, is an output check that needs a run of its own;
	// digest is the outcome digest of the timed rep built from seed. It
	// reports whether it could run on this machine.
	crossCheck func(seed uint64, simFrac float64, digest uint64) (ran bool, err error)
	// workerSpeedup, when set, measures fleet.speedup_w2.
	workerSpeedup func(seed uint64, simFrac float64) (float64, error)
}

var workloads = []workload{
	{
		// The Fig. 15 drive: radio, CSI/ESNR, PHY, MAC, AP queues and the UDP
		// sender do the work; urban, fleet and federation none.
		name: "corridor-udp", unit: "client-seconds", speedMPH: 15,
		build: buildCorridorUDP,
	},
	{
		// The same layers under contention: uplink de-duplication, Block-ACK
		// forwarding, TCP ack clocking, faster switching.
		name: "corridor-mixed", unit: "client-seconds", speedMPH: 25,
		build: buildCorridorMixed,
	},
	{
		// Only here do the urban planner, corner blockage, tile barriers and
		// codec migrations run; light load, most links blocked.
		name: "metro", unit: "client-seconds", speedMPH: 15,
		build: buildMetro, crossCheck: metroWorkersCheck, workerSpeedup: metroWorkerSpeedup,
	},
	{
		// No radio: only codec, switch, engine, controller and AP rings work.
		name: "backhaul-fanout", unit: "thousand AP copies", speedMPH: 15,
		build: buildFanout,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---------------------------------------------------------------- corridor

// corridor is a core.Network drive with its attached flows.
type corridor struct {
	n       *core.Network
	downUDP []*core.DownUDP
	upUDP   []*core.UpUDP
	downTCP []*core.DownTCP
}

func buildCorridorUDP(seed uint64, simFrac float64, tr *tracer) (world, error) {
	s := core.DriveScenario(core.ModeWGTT, 15, seed)
	return buildCorridor(s, simFrac, tr, func(c *corridor) {
		// Open loop: CBR inside the simulation, whatever the network delivers.
		c.downUDP = append(c.downUDP, c.n.AddDownlinkUDP(0, 50, 1400))
	})
}

func buildCorridorMixed(seed uint64, simFrac float64, tr *tracer) (world, error) {
	s := core.MultiClientScenario(core.ModeWGTT, mobility.Following, 3, 25, seed)
	return buildCorridor(s, simFrac, tr, func(c *corridor) {
		c.downTCP = append(c.downTCP, c.n.AddDownlinkTCP(0, 0, nil)) // closed loop
		c.upUDP = append(c.upUDP, c.n.AddUplinkUDP(1, 10, 1400))     // open loop
		c.downUDP = append(c.downUDP, c.n.AddDownlinkUDP(2, 10, 1400))
	})
}

func buildCorridor(s core.Scenario, simFrac float64, tr *tracer, attach func(*corridor)) (world, error) {
	s.Duration = sim.Time(float64(s.Duration) * simFrac)
	tr.begin("core.Build")
	n, err := core.Build(s)
	tr.end()
	if err != nil {
		return nil, err
	}
	if tr != nil {
		n.EnableMetrics()
	}
	tr.begin("flows.attach")
	defer tr.end()
	c := &corridor{n: n}
	attach(c)
	for _, f := range c.downUDP {
		f.Sender.Start()
	}
	for _, f := range c.upUDP {
		f.Sender.Start()
	}
	for _, f := range c.downTCP {
		f.Sender.Start()
	}
	return c, nil
}

// corridorStep is the simulated time a corridor advances per timed slice:
// about a millisecond of host time.
const corridorStep = 50 * sim.Millisecond

func (c *corridor) run(lap func(string)) error {
	end := c.n.Scenario.Duration
	for t := corridorStep; ; t += corridorStep {
		if t > end {
			t = end
		}
		c.n.RunUntil(t)
		lap("Network.RunUntil")
		if t == end {
			return nil
		}
	}
}

func (c *corridor) harvest() counts {
	n := c.n
	dur := n.Scenario.Duration.Seconds()
	k := counts{
		units:      dur * float64(len(n.Clients)),
		simSeconds: dur,
		events:     n.Eng.Fired(),
	}
	for _, f := range c.downUDP {
		k.offered += f.Sender.Sent
		k.delivered += f.Receiver.Received
		k.payloadBytes += f.Receiver.Bytes
	}
	for _, f := range c.upUDP {
		k.offered += f.Sender.Sent
		k.delivered += f.Receiver.Received
		k.payloadBytes += f.Receiver.Bytes
	}
	for _, f := range c.downTCP {
		k.offered += f.Sender.Sent
		k.delivered += f.Receiver.Delivered
		k.payloadBytes += f.Receiver.DeliveredBytes
		k.tcpTimeouts += f.Sender.Timeouts
	}
	m := n.Medium
	k.grants, k.txColl, k.respColl, k.respTotal = m.Grants, m.TxCollisions, m.RespCollisions, m.RespTotal
	k.airtimeFrac = m.Utilization()
	for _, a := range n.APs {
		st := a.Stats
		k.apEnqueued += st.DownEnqueued
		k.apOverwritten += st.DownOverwritten
		k.apDelivered += st.MPDUsDelivered
		k.apDropped += st.MPDUsDropped
		k.apBAForwarded += st.BAForwarded
	}
	k.bhMsgs, _, k.bhBytes = n.Bh.Stats()
	cs := n.Ctl.Stats
	k.csiReports = cs.CSIReports
	k.switchesStarted, k.switchesDone = cs.SwitchesStarted, cs.SwitchesDone
	k.downlinkSent, k.downlinkCopies = cs.DownlinkSent, cs.DownlinkCopies
	k.uplinkUnique, k.uplinkDup = cs.UplinkUnique, cs.UplinkDuplicate
	bad := 0
	for _, rec := range n.Ctl.History {
		k.switchMS = append(k.switchMS, rec.Duration.Seconds()*1e3)
		if rec.Duration <= 0 || rec.Attempts < 1 {
			bad++
		}
	}
	for _, cl := range n.Clients {
		k.clientMPDUs += cl.Stats.DownlinkMPDUs
		k.clientDupes += cl.Stats.DownlinkDupes
	}

	// A switch in flight when the drive ends is not a failure, so at most
	// one per client may be outstanding; everything in History completed.
	k.check(uint64(len(n.Ctl.History)) == cs.SwitchesDone && bad == 0 &&
		cs.SwitchesStarted-cs.SwitchesDone <= uint64(len(n.Clients)),
		"switch ledger: started %d done %d history %d malformed %d",
		cs.SwitchesStarted, cs.SwitchesDone, len(n.Ctl.History), bad)
	k.checkDelivery()

	h := fnv.New64a()
	fmt.Fprint(h, k.offered, k.delivered, k.payloadBytes, k.events, k.grants, k.txColl,
		k.respColl, k.respTotal, m.BusyTime, k.apEnqueued, k.apOverwritten, k.apDelivered,
		k.apDropped, k.apBAForwarded, k.bhMsgs, k.bhBytes, cs, k.clientMPDUs, k.clientDupes,
		k.tcpTimeouts, k.switchMS)
	k.digest = h.Sum64()
	return k
}

// checkDelivery is the per-rep delivery check: nothing is received that was
// not sent, and something is.
func (k *counts) checkDelivery() {
	k.check(k.delivered <= k.offered && k.delivered > 0,
		"delivered %d of %d offered", k.delivered, k.offered)
}

// ------------------------------------------------------------------- metro

// metroHorizonS is the simulated length of one metro rep.
const metroHorizonS = 15

// metroConfig is the `make metro-smoke` city of
// internal/fleet/metro_test.go (metroTestConfig), restated here because a
// test helper cannot be imported.
func metroConfig(seed uint64, simFrac float64) fleet.Config {
	city := urban.DefaultConfig()
	city.Rows, city.Cols = 3, 3
	city.APSpacingM = 30
	city.RidersPerBus = 3
	city.Cars = 1
	city.Pedestrians = 1
	city.MaxDurationS = metroHorizonS * simFrac
	city.Domains = 1
	return fleet.Config{
		Seed:        seed,
		Workers:     1,
		UDPRateMbps: 4,
		Metro: &urban.MetroConfig{
			Tiles: urban.Tiling{Rows: 2, Cols: 2},
			City:  city,
		},
	}
}

// metroPlanSeed is the seed RunMetro derives its city plan from.
func metroPlanSeed(seed uint64) uint64 {
	return sim.NewRNG(seed).Stream("fleet/metro/seed").Uint64()
}

// metro is one city. RunMetro plans and builds its tiles itself, so the
// build slice here is a direct BuildMetroPlan call on the same city and
// seed (its plan is not used further), and RunMetro's own planning and tile
// assembly stay in the run slice.
type metro struct {
	cfg fleet.Config
	res *fleet.MetroResult
}

func buildMetro(seed uint64, simFrac float64, tr *tracer) (world, error) {
	cfg := metroConfig(seed, simFrac)
	cfg.Metrics = tr != nil
	tr.begin("urban.BuildMetroPlan")
	_, err := urban.BuildMetroPlan(*cfg.Metro, metroPlanSeed(seed))
	tr.end()
	if err != nil {
		return nil, err
	}
	return &metro{cfg: cfg}, nil
}

func (m *metro) run(lap func(string)) error {
	cfg := m.cfg
	// RunMetro calls Progress from its own loop on this goroutine after
	// each epoch (Workers=1 runs tiles inline).
	cfg.Progress = func(done, total int) { lap("metro.epoch") }
	res, err := fleet.RunMetro(cfg)
	m.res = res
	return err
}

func (m *metro) harvest() counts {
	r := m.res
	k := counts{
		units:            r.DurationS * float64(r.Clients),
		simSeconds:       r.DurationS,
		offered:          r.Stats.Sent,
		delivered:        r.Stats.Received,
		payloadBytes:     r.Stats.Bytes,
		csiReports:       r.Stats.CSIReports,
		switchesDone:     r.Stats.Switches,
		migrations:       r.Stats.Migrations,
		handoffWireBytes: r.Stats.HandoffWireBytes,
		seamOutageMS:     r.Stats.SeamOutage.Seconds() * 1e3,
	}
	var air float64
	for _, t := range r.Tiles {
		air += t.AirtimePct / 100
	}
	if len(r.Tiles) > 0 {
		k.airtimeFrac = air / float64(len(r.Tiles))
	}
	if r.Metrics != nil {
		k.fromSnapshot(r.Metrics)
		k.clientMPDUs = r.Stats.Received // every unique downlink packet is a flow datagram
	}
	// A datagram in flight at a seam can reach the client in both tiles
	// (each tile's client keeps its own duplicate filter), so on a seed with
	// next to no loss one rep may count a few more received than sent; the
	// received <= sent check therefore runs on the run's totals (endToEnd)
	// and a rep only has to deliver something.
	k.check(k.delivered > 0, "delivered none of %d offered", k.offered)
	k.check(r.Stats.Migrations <= uint64(r.Crossings),
		"migrations %d exceed %d planned crossings", r.Stats.Migrations, r.Crossings)
	k.digest = reportDigest(r)
	return k
}

func reportDigest(r *fleet.MetroResult) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, r.Render())
	return h.Sum64()
}

// metroWorkersCheck is the determinism contract of DESIGN.md §17: the
// report is byte-identical for any worker count. The two workers are
// goroutines, so the check is skipped on a single-CPU box rather than start
// more goroutines than cores.
func metroWorkersCheck(seed uint64, simFrac float64, digest uint64) (bool, error) {
	if runtime.NumCPU() < 2 {
		return false, nil
	}
	cfg := metroConfig(seed, simFrac)
	cfg.Workers = 2
	res, err := fleet.RunMetro(cfg)
	if err != nil {
		return true, err
	}
	if reportDigest(res) != digest {
		return true, fmt.Errorf("metro report with Workers=2 differs from Workers=1")
	}
	return true, nil
}

// fromSnapshot fills the per-layer counts a metro keeps private to its
// tiles from the merged metrics snapshot (traced reps only).
func (k *counts) fromSnapshot(s *metrics.Snapshot) {
	for _, c := range s.Counters {
		// AP and client instruments are keyed by node name (ap3, client2),
		// so those match on the counter name alone.
		switch c.Name {
		case "down_enqueued":
			k.apEnqueued += c.Value
		case "ring_overwrites":
			k.apOverwritten += c.Value
		case "ba_forwarded":
			k.apBAForwarded += c.Value
		case "downlink_dupes":
			k.clientDupes += c.Value
		case "downlink_copies":
			k.downlinkCopies += c.Value
		case "downlink_encodes":
			k.downlinkSent += c.Value
		case "switches_started":
			k.switchesStarted += c.Value
		case "hits":
			k.uplinkDup += c.Value
		case "misses":
			k.uplinkUnique += c.Value
		}
	}
	for _, sp := range s.Spans {
		if d := sp.DurationNS(); d > 0 {
			k.switchMS = append(k.switchMS, float64(d)/1e6)
		}
	}
}

// ----------------------------------------------------------------- fan-out

const (
	fanoutAPs      = 32
	fanoutPktBytes = 1200
	fanoutPPS      = 20000 // simulated downlink packets per second
	fanoutSteps    = 20    // timed slices per rep, about a millisecond of host time each
)

// fanout is the radio-less controller → switch → AP-ring path.
type fanout struct {
	eng *sim.Engine
	bh  *backhaul.Switch
	ctl *controller.Controller
	aps []*ap.AP
	dur sim.Time

	sent    uint64
	sendErr error
}

func buildFanout(seed uint64, simFrac float64, tr *tracer) (world, error) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(seed)
	clk := wrt.Virtual(eng)
	bh := backhaul.NewSwitch(eng, 200*sim.Microsecond) // Verify on
	f := &fanout{eng: eng, bh: bh, dur: sim.Time(float64(sim.Second) * simFrac)}
	infos := make([]controller.APInfo, fanoutAPs)
	client := packet.ClientMAC(1)
	var reg *metrics.Registry
	if tr != nil {
		reg = metrics.NewRegistry()
	}
	for i := range infos {
		cfg := ap.DefaultConfig(i, core.SharedBSSID)
		a := ap.New(cfg, clk, bh, nil, packet.ControllerIP, rng.Stream("ap/"+cfg.Name))
		a.Associate(client, packet.ClientIP(1), i == 0)
		if reg != nil {
			a.UseMetrics(reg)
		}
		f.aps = append(f.aps, a)
		infos[i] = controller.APInfo{ID: i, IP: cfg.IP, MAC: cfg.MAC}
	}
	cfg := controller.DefaultConfig()
	// Every AP stays in the client's relevance set for the whole rep: the
	// workload is steady full-width fan-out, not window expiry.
	cfg.FanoutWindow = sim.Time(1) << 60
	f.ctl = controller.New(cfg, clk, bh, infos)
	if reg != nil {
		f.ctl.UseMetrics(reg)
	}
	f.ctl.RegisterClient(client, packet.ClientIP(1), 0)
	// One CSI report per AP puts every AP in the relevance set. AP 0 hears
	// the client best and already serves it, so no switch ever starts; the
	// seed only jitters the levels below that margin.
	jit := rng.Stream("bench/fanout/csi")
	snr := make([]float64, packet.CSISubcarriers)
	for i := range infos {
		db := 10 + 2*jit.Float64()
		if i == 0 {
			db = 20
		}
		for j := range snr {
			snr[j] = db
		}
		rep := &packet.CSIReport{Client: client, AP: packet.APIP(i), At: int64(eng.Now())}
		rep.QuantizeSNR(snr)
		f.ctl.HandleBackhaul(packet.APIP(i), rep)
	}
	return f, nil
}

func (f *fanout) run(lap func(string)) error {
	const interval = sim.Second / fanoutPPS
	client := packet.ClientMAC(1)
	var tick func()
	tick = func() {
		p := &packet.Packet{
			ClientMAC: client, DstIP: packet.ClientIP(1), SrcIP: core.ServerIP,
			Seq: uint32(f.sent), Bytes: fanoutPktBytes, Created: f.eng.Now(),
		}
		if err := f.ctl.SendDownlink(p); err != nil && f.sendErr == nil {
			f.sendErr = err
		}
		f.sent++
		if f.eng.Now()+interval < f.dur {
			f.eng.After(interval, tick)
		}
	}
	f.eng.At(0, tick)
	for t := f.dur / fanoutSteps; t <= f.dur; t += f.dur / fanoutSteps {
		f.eng.RunUntil(t)
		lap("Engine.RunUntil")
	}
	f.eng.Run() // copies still in flight on the switch
	lap("Engine.Run")
	return f.sendErr
}

func (f *fanout) harvest() counts {
	cs := f.ctl.Stats
	k := counts{
		units:      float64(cs.DownlinkCopies) / 1000,
		simSeconds: f.dur.Seconds(),
		events:     f.eng.Fired(),

		csiReports:      cs.CSIReports,
		switchesStarted: cs.SwitchesStarted, switchesDone: cs.SwitchesDone,
		downlinkSent: cs.DownlinkSent, downlinkCopies: cs.DownlinkCopies,
	}
	for _, a := range f.aps {
		k.apEnqueued += a.Stats.DownEnqueued
		k.apOverwritten += a.Stats.DownOverwritten
	}
	k.bhMsgs, _, k.bhBytes = f.bh.Stats()
	// Offered = one copy per AP per downlink; delivered = copies accepted
	// into AP rings. goodput is payload per AP.
	k.offered = cs.DownlinkSent * fanoutAPs
	k.delivered = k.apEnqueued
	k.payloadBytes = k.apEnqueued * fanoutPktBytes / fanoutAPs

	k.checkDelivery()
	k.check(k.apEnqueued == cs.DownlinkCopies,
		"AP rings took %d copies, controller sent %d", k.apEnqueued, cs.DownlinkCopies)
	// The harness injects the CSI reports straight into the controller and
	// radio-less APs send nothing back, so downlink copies are the only
	// traffic the switch carried.
	wire := uint64(3 + (&packet.DownData{}).WireSize())
	k.check(k.bhMsgs == cs.DownlinkCopies && k.bhBytes == cs.DownlinkCopies*wire,
		"switch carried %d msgs / %d B, want %d msgs of %d B", k.bhMsgs, k.bhBytes, cs.DownlinkCopies, wire)
	k.check(cs.SwitchesStarted == 0, "fan-out started %d switches", cs.SwitchesStarted)

	h := fnv.New64a()
	fmt.Fprint(h, cs, k.apEnqueued, k.apOverwritten, k.bhMsgs, k.bhBytes, k.events)
	k.digest = h.Sum64()
	return k
}
