package core

import (
	"fmt"

	"wgtt/internal/ap"
	"wgtt/internal/backhaul"
	"wgtt/internal/baseline"
	"wgtt/internal/chaos"
	"wgtt/internal/client"
	"wgtt/internal/controller"
	"wgtt/internal/csi"
	"wgtt/internal/federation"
	"wgtt/internal/mac"
	"wgtt/internal/metrics"
	"wgtt/internal/mobility"
	"wgtt/internal/packet"
	"wgtt/internal/radio"
	"wgtt/internal/sim"
	"wgtt/internal/trace"
)

// SharedBSSID is the single BSSID every WGTT AP presents (§4.3).
var SharedBSSID = packet.MACAddr{0x02, 0xb5, 0x51, 0xd0, 0x00, 0x01}

// Network is a fully assembled scenario ready to run.
type Network struct {
	Scenario Scenario

	Eng     *sim.Engine
	RNG     *sim.RNG
	Channel *radio.Channel
	// Medium is the primary wireless channel; in multi-channel scenarios
	// (Scenario.Channels > 1) Media holds all of them and Medium aliases
	// Media[0].
	Medium *mac.Medium
	Media  []*mac.Medium
	Bh     *backhaul.Switch

	// OnSwitch observes completed WGTT switches (chained after the
	// network's own multi-channel retune handling).
	OnSwitch func(rec controller.SwitchRecord)

	apChannel []int

	APs        []*ap.AP
	APPosition []mobility.Point
	Clients    []*client.Client

	// WGTT mode: the controller tier (DESIGN.md §13), one Domain per
	// Scenario.Domains — a single controller is the tier with one domain.
	// Ctl is that one domain's controller, nil when federated.
	Fed *federation.Tier
	Ctl *controller.Controller
	// Baseline mode.
	Base *baseline.Network

	baseIdx []uint16 // per-client baseline downlink index counters

	downRx map[int][]func(p *packet.Packet, at sim.Time)
	upRx   []func(p *packet.Packet, at sim.Time)

	clientByMAC map[packet.MACAddr]int
	// clientEP is each client's radio endpoint, in client order (the ESNR
	// oracle and the probe plane evaluate links against it on every sample).
	clientEP []*radio.Endpoint
	nextFlow uint32

	// snrScratch is the reusable per-subcarrier sample buffer for the probe
	// plane and the ESNR evaluation hooks (single simulation goroutine).
	snrScratch []float64

	// Metrics is the observability registry attached by EnableMetrics
	// (nil — recording disabled — by default; DESIGN.md §10).
	Metrics *metrics.Registry

	// Chaos is the fault injector, armed by Build when Scenario.Chaos is
	// set (nil otherwise; DESIGN.md §11).
	Chaos *chaos.Injector
}

// Build assembles a scenario into a Network.
func Build(s Scenario) (*Network, error) {
	if len(s.Clients) == 0 {
		return nil, fmt.Errorf("core: scenario has no clients")
	}
	// AP positions: the scenario's, else the testbed's.
	aps := s.APPositions
	if aps == nil {
		aps = mobility.DefaultAPPositions()
	}
	if err := packet.CheckAddressPlan(len(aps), len(s.Clients)); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	nCh := s.Channels
	if nCh < 1 {
		nCh = 1
	}
	if nCh > 1 && s.Mode != ModeWGTT {
		return nil, fmt.Errorf("core: multi-channel deployments are only modeled for WGTT")
	}
	if s.Chaos != nil && s.Mode != ModeWGTT {
		// The baseline has no controller to detect and recover from AP
		// deaths; chaos against it would measure nothing but the fault.
		return nil, fmt.Errorf("core: chaos injection is only modeled for WGTT")
	}
	nDom := s.Domains
	if nDom < 1 {
		nDom = 1
	}
	if nDom > 1 {
		if s.Mode != ModeWGTT {
			return nil, fmt.Errorf("core: controller federation is only modeled for WGTT")
		}
		if nCh > 1 {
			return nil, fmt.Errorf("core: federation and multi-channel are mutually exclusive (the probe plane assumes one controller)")
		}
	}
	eng := sim.NewEngine()
	rng := sim.NewRNG(s.Seed)

	params := radio.DefaultParams()
	params.Obstruction = s.obstruction
	ch := radio.NewChannel(params, rng)
	var media []*mac.Medium
	for c := 0; c < nCh; c++ {
		media = append(media, mac.NewMedium(eng, ch, rng.Stream(fmt.Sprintf("mac/medium/%d", c))))
	}
	medium := media[0]
	bh := backhaul.NewSwitch(eng, backhaulLatency)

	n := &Network{
		Scenario:    s,
		Eng:         eng,
		RNG:         rng,
		Channel:     ch,
		Medium:      medium,
		Media:       media,
		Bh:          bh,
		downRx:      make(map[int][]func(*packet.Packet, sim.Time)),
		clientByMAC: make(map[packet.MACAddr]int),
	}

	n.APPosition = append(n.APPosition, aps...)

	// The city table the controller tier shares: contiguous domain blocks,
	// unless the scenario binds every AP explicitly (validated for
	// coverage first).
	city := federation.City(len(n.APPosition), nDom)
	if len(s.APDomains) > 0 {
		if len(s.APDomains) != len(n.APPosition) {
			return nil, fmt.Errorf("core: %d AP domain bindings for %d active APs", len(s.APDomains), len(n.APPosition))
		}
		occupied := make([]bool, nDom)
		for i, d := range s.APDomains {
			if d < 0 || d >= nDom {
				return nil, fmt.Errorf("core: AP %d bound to domain %d, want [0, %d)", i, d, nDom)
			}
			occupied[d] = true
			city[i].Domain = d
		}
		for d, ok := range occupied {
			if !ok {
				return nil, fmt.Errorf("core: domain %d owns no APs", d)
			}
		}
	}

	// Disturbers: with multiple clients, every client scatters the others'
	// links (§5.2.2's dynamic multipath).
	if len(s.Clients) > 1 {
		for _, cs := range s.Clients {
			ch.AddDisturber(cs.Trace, mobility.MPH(cs.SpeedMPH))
		}
	}

	wgtt := s.Mode == ModeWGTT

	// Build APs.
	for i, pos := range n.APPosition {
		bssid := SharedBSSID
		if !wgtt {
			bssid = packet.APMAC(i) // baseline: each AP is its own BSS
		}
		cfg := ap.DefaultConfig(i, bssid)
		cfg.BAForwarding = wgtt && !s.NoBAForwarding
		cfg.ForwardOnlyWhenServing = wgtt && s.NoUplinkDiversity
		var antenna radio.Antenna = radio.NewLairdGD24BP()
		if s.OmniAPs {
			// Small-cell omni variant (§4.2): modest gain in every
			// direction instead of the parabolic main lobe.
			antenna = radio.Omni{PeakDBi: 5}
		}
		lossDB := s.apLossDB
		if lossDB == 0 {
			lossDB = apFixedLossDB
		}
		ep := &radio.Endpoint{
			Name:         cfg.Name,
			Trace:        mobility.Stationary{At: pos},
			Antenna:      antenna,
			BoresightRad: apBoresight,
			TxPowerDBm:   apTxPowerDBm,
			ExtraLossDB:  lossDB,
		}
		if err := ch.AddEndpoint(ep); err != nil {
			return nil, err
		}
		apCh := i % nCh
		n.apChannel = append(n.apChannel, apCh)
		var aliases []packet.MACAddr
		if wgtt {
			aliases = []packet.MACAddr{SharedBSSID}
		}
		st := mac.NewStation(media[apCh], mac.StationConfig{
			Addr:        cfg.MAC,
			Aliases:     aliases,
			Endpoint:    ep,
			Promiscuous: wgtt, // monitor-mode interface (§3.2.1)
		})
		// Each AP reports to the controller owning its domain; with one
		// domain that is packet.ControllerIP, unchanged.
		a := ap.New(cfg, eng, bh, st, packet.DomainControllerIP(city[i].Domain), rng.Stream("ap/"+cfg.Name))
		n.APs = append(n.APs, a)
	}
	for i, a := range n.APs {
		peers := make([]packet.IPv4Addr, 0, len(city)-1)
		for j, c := range city {
			if j != i {
				peers = append(peers, c.IP)
			}
		}
		a.SetPeers(peers)
	}

	// Wired side.
	if wgtt {
		ctlCfg := controller.DefaultConfig()
		if s.Controller != nil {
			ctlCfg = *s.Controller
		}
		if s.Chaos != nil {
			// Faults without detection would just be permanent outages: the
			// chaos engine implies the §11 health monitor.
			ctlCfg = ctlCfg.WithHealth()
		}
		if s.Policy != "" {
			ctlCfg.Policy = s.Policy
		}
		// The controller tier (DESIGN.md §13): one Domain per AP block over a
		// shared city table, and a Tier routing wired-side traffic to each
		// client's owner. Every completed switch — inner, or a cross-domain
		// pull — names APs by their index in n.APs, follows the serving AP's
		// channel (channel-switch announcement, ~1 ms) and reaches n.OnSwitch.
		if nDom > len(city) {
			return nil, fmt.Errorf("core: %d domains for %d APs", nDom, len(city))
		}
		fedCfg := federation.DefaultConfig()
		fedCfg.Controller = ctlCfg
		if s.handoffMargin != 0 {
			fedCfg.MarginDB = s.handoffMargin
		}
		if s.handoffDwell != 0 {
			fedCfg.Hysteresis = s.handoffDwell
		}
		domains := make([]*federation.Domain, nDom)
		for d := range domains {
			domains[d] = federation.NewDomain(fedCfg, eng, bh, d, city)
			domains[d].Controller().DeliverUplink = n.dispatchUplink
			domains[d].OnSwitch = func(rec controller.SwitchRecord) {
				if nCh > 1 {
					n.retuneClient(rec)
				}
				if n.OnSwitch != nil {
					n.OnSwitch(rec)
				}
			}
		}
		n.Fed = federation.NewTier(domains)
		if nDom == 1 {
			n.Ctl = domains[0].Controller()
		}
	} else {
		n.Base = baseline.NewNetwork(eng, bh, n.APs)
		n.Base.DeliverUplink = n.dispatchUplink
		n.Base.StartBeacons()
	}

	// Clients.
	n.baseIdx = make([]uint16, len(s.Clients))
	for i, spec := range s.Clients {
		name := fmt.Sprintf("car%d", i+1)
		ep := &radio.Endpoint{
			Name:        name,
			Trace:       spec.Trace,
			TxPowerDBm:  clientTxPowerDBm,
			SpeedHintMS: mobility.MPH(spec.SpeedMPH),
		}
		if err := ch.AddEndpoint(ep); err != nil {
			return nil, err
		}
		start := nearestAP(n.APPosition, spec.Trace.Position(0))
		dest := SharedBSSID
		if !wgtt {
			dest = packet.APMAC(start)
		}
		ccfg := client.DefaultConfig(i+1, dest)
		st := mac.NewStation(media[n.apChannel[start]], mac.StationConfig{
			Addr:     ccfg.MAC,
			Endpoint: ep,
		})
		cl := client.New(ccfg, eng, st)
		idx := i
		cl.OnDownlink = func(p *packet.Packet, at sim.Time) {
			for _, fn := range n.downRx[idx] {
				fn(p, at)
			}
		}
		n.Clients = append(n.Clients, cl)
		n.clientEP = append(n.clientEP, ep)
		n.clientByMAC[ccfg.MAC] = i

		// Association bootstrap: the §4.3 replication, performed directly,
		// and the tier's admission of an empty state bundle at the client's
		// first AP. A deferred client gets its AP-side association (no
		// serving AP) but no admission — AdmitCellHandoff completes the
		// bootstrap when the client actually enters this cell.
		switch {
		case spec.Deferred && !wgtt:
			return nil, fmt.Errorf("core: deferred clients are only modeled for WGTT")
		case spec.Deferred:
			n.associate(cl, -1)
		case wgtt:
			fresh := &packet.DomainHandoffCommit{Client: ccfg.MAC, ClientIP: ccfg.IP, TargetAP: city[start].IP}
			if err := n.admitClient(cl, start, fresh); err != nil {
				return nil, err
			}
		default:
			n.startClientKeepalive(cl)
			n.Base.Associate(ccfg.MAC, ccfg.IP, start)
			baseline.NewRoamer(eng, cl, n.Base, start)
		}
	}

	// Multi-channel plumbing: the off-channel probe plane that keeps
	// cross-channel CSI flowing (see DESIGN.md §5).
	if nCh > 1 {
		n.startProbePlane()
	}

	// Fault injection (DESIGN.md §11): derive the plan from the scenario
	// seed and arm it against every AP and every controller domain (chaos
	// implies WGTT).
	if s.Chaos != nil {
		aps := make([]chaos.Target, len(n.APs))
		for i, a := range n.APs {
			aps[i] = a
		}
		ctls := make([]chaos.Target, len(n.Fed.Domains))
		for i, d := range n.Fed.Domains {
			ctls[i] = d
		}
		n.Chaos = chaos.NewInjector(*s.Chaos, eng, rng, aps, ctls, s.Duration)
		n.Chaos.Arm(bh)
	}

	return n, nil
}

// EnableMetrics attaches a fresh observability registry to the network —
// controller selection/dedup instruments and switch-protocol spans, per-AP
// queue/Block-ACK/keepalive instruments, per-client keepalive counters —
// and returns it. Call before Run; snapshot after. Recording is off until
// this is called, and the instrumented hot paths stay allocation-free
// either way (DESIGN.md §10).
func (n *Network) EnableMetrics() *metrics.Registry {
	return n.EnableMetricsInto(metrics.NewRegistry())
}

// EnableMetricsInto wires this network's components into an existing
// registry, so one registry can aggregate several sequential runs (the
// experiment harness does this). The registry must not be shared across
// concurrently running networks: like the simulation itself, it is
// single-goroutine.
func (n *Network) EnableMetricsInto(r *metrics.Registry) *metrics.Registry {
	n.Metrics = r
	if n.Fed != nil {
		for _, d := range n.Fed.Domains {
			d.UseMetrics(r)
		}
	}
	for _, a := range n.APs {
		a.UseMetrics(r)
	}
	for i, cl := range n.Clients {
		cl.UseMetrics(r, packet.ClientName(i+1))
	}
	if n.Chaos != nil {
		n.Chaos.UseMetrics(r)
	}
	if plan := n.Scenario.City; plan != nil {
		// Urban workload shape (DESIGN.md §16): planned quantities, recorded
		// once so fleet/eval merges report the generated city truthfully.
		st := &plan.Stats
		r.CounterAt("urban", "turns", &st.Turns)
		r.CounterAt("urban", "light_stops", &st.LightStops)
		r.CounterAt("urban", "route_crossings", &st.RouteCrossings)
		r.CounterAt("urban", "buses", &st.Buses)
		r.CounterAt("urban", "riders", &st.Riders)
		r.CounterAt("urban", "cars", &st.Cars)
		r.CounterAt("urban", "pedestrians", &st.Pedestrians)
		h := r.Histogram("urban", "riders_per_bus", []float64{0, 5, 10, 20, 40, 80})
		for _, k := range st.RidersPerBus {
			h.Observe(float64(k))
		}
	}
	return r
}

// OnClientDownlink registers a tap on a client's delivered downlink
// packets (chained after any flow receivers).
func (n *Network) OnClientDownlink(clientID int, fn func(p *packet.Packet, at sim.Time)) {
	n.downRx[clientID] = append(n.downRx[clientID], fn)
}

// retuneClient moves a client's radio to its new serving AP's channel.
func (n *Network) retuneClient(rec controller.SwitchRecord) {
	id, ok := n.clientByMAC[rec.Client]
	if !ok {
		return
	}
	target := n.Media[n.apChannel[rec.To]]
	st := n.Clients[id].Station()
	n.Eng.After(sim.Millisecond, func() { st.Retune(target) })
}

// startProbePlane compresses the client's per-channel probe sweep: every
// 5 ms each AP (whatever its channel) takes one CSI measurement of each
// client and reports it, so the controller can compare APs across channels
// (a challenger needs two in-window samples to be eligible). The sweep's
// airtime cost is negligible and not modeled.
func (n *Network) startProbePlane() {
	n.Every(5*sim.Millisecond, func(at sim.Time) {
		for ci, cl := range n.Clients {
			cep := n.clientEP[ci]
			for _, a := range n.APs {
				link, err := n.Channel.Link(a.Config().Name, cep.Name)
				if err != nil {
					continue
				}
				n.snrScratch = link.SNRInto(at, cep, n.snrScratch)
				rep := &packet.CSIReport{Client: cl.Config().MAC, AP: a.Config().IP, At: int64(at)}
				rep.QuantizeSNR(n.snrScratch)
				_ = n.Bh.Send(a.Config().IP, packet.ControllerIP, rep)
			}
		}
	})
}

// AttachRecorder streams a tcpdump-style event log of the run: every
// confirmed delivery, every data frame on the air, every completed switch,
// and every de-duplicated uplink arrival. Existing evaluation hooks are
// chained, not replaced. Call rec.Flush() after Run.
func (n *Network) AttachRecorder(rec *trace.Recorder) {
	for _, a := range n.APs {
		a := a
		name := a.Config().Name
		prevDeliver := a.OnDeliver
		a.OnDeliver = func(p *packet.Packet, at sim.Time) {
			rec.Log(trace.Event{
				AtNS: trace.At(at), Kind: trace.KindDeliver, Node: name,
				Client: p.ClientMAC.String(), Bytes: p.Bytes, Seq: p.Seq,
				Index: p.Index, FlowID: p.FlowID,
			})
			if prevDeliver != nil {
				prevDeliver(p, at)
			}
		}
		prevTx := a.OnFrameTx
		a.OnFrameTx = func(rate float64, mpdus int, at sim.Time) {
			rec.Log(trace.Event{
				AtNS: trace.At(at), Kind: trace.KindFrameTx, Node: name,
				RateMbps: rate, MPDUs: mpdus,
			})
			if prevTx != nil {
				prevTx(rate, mpdus, at)
			}
		}
	}
	prev := n.OnSwitch
	n.OnSwitch = func(recd controller.SwitchRecord) {
		rec.Log(trace.Event{
			AtNS: trace.At(recd.At), Kind: trace.KindSwitch, Node: "controller",
			Client: recd.Client.String(), FromAP: recd.From, ToAP: recd.To,
			DurNS: int64(recd.Duration),
		})
		if prev != nil {
			prev(recd)
		}
	}
	n.onServerUplink(func(p *packet.Packet, at sim.Time) {
		rec.Log(trace.Event{
			AtNS: trace.At(at), Kind: trace.KindUplink, Node: "controller",
			Client: p.ClientMAC.String(), Bytes: p.Bytes, Seq: p.Seq, FlowID: p.FlowID,
		})
	})
}

// dispatchUplink fans a de-duplicated uplink packet to server-side flows.
func (n *Network) dispatchUplink(p *packet.Packet, at sim.Time) {
	for _, fn := range n.upRx {
		fn(p, at)
	}
}

// SendDownlink injects one downlink packet for the given client.
func (n *Network) SendDownlink(clientID int, p *packet.Packet) error {
	p.ClientMAC = n.Clients[clientID].Config().MAC
	if p.DstIP.IsZero() {
		p.DstIP = n.Clients[clientID].Config().IP
	}
	if n.Fed != nil {
		return n.Fed.SendDownlink(p)
	}
	return n.Base.SendDownlink(p, &n.baseIdx[clientID])
}

// ServingAP returns which AP currently serves the client (-1: none).
func (n *Network) ServingAP(clientID int) int {
	mac := n.Clients[clientID].Config().MAC
	if n.Fed != nil {
		return n.Fed.ServingAP(mac)
	}
	return n.Base.CurrentAP(mac)
}

// CtlStats sums the controller counters across the tier's domains (zero in
// baseline mode).
func (n *Network) CtlStats() controller.Stats {
	if n.Fed == nil {
		return controller.Stats{}
	}
	return n.Fed.Stats().Ctl
}

// FedStats returns the summed federation counters (zero with one domain or
// none).
func (n *Network) FedStats() federation.Stats {
	if n.Fed == nil {
		return federation.Stats{}
	}
	return n.Fed.Stats().Fed
}

// BestESNRAP returns the ground-truth optimal AP — the one with the highest
// instantaneous uplink ESNR to the client — and that ESNR (Table 2's oracle).
func (n *Network) BestESNRAP(clientID int, at sim.Time) (int, float64) {
	best, bestESNR := -1, 0.0
	for i := range n.APs {
		e := n.ClientESNR(clientID, i, at)
		if best == -1 || e > bestESNR {
			best, bestESNR = i, e
		}
	}
	return best, bestESNR
}

// ClientESNR returns the instantaneous uplink ESNR from the client to one AP.
func (n *Network) ClientESNR(clientID, apID int, at sim.Time) float64 {
	cep := n.clientEP[clientID]
	link, err := n.Channel.Link(n.APs[apID].Config().Name, cep.Name)
	if err != nil {
		return 0
	}
	n.snrScratch = link.SNRInto(at, cep, n.snrScratch)
	return csi.ESNRdB(n.snrScratch, csi.DefaultESNRModulation)
}

// Run advances the simulation to the scenario duration and closes the
// registry's run (metrics.Registry.EndRun): snapshot after it, and count
// nothing more on this network.
func (n *Network) Run() {
	n.Eng.RunUntil(n.Scenario.Duration)
	n.Metrics.EndRun(int64(n.Scenario.Duration))
}

// RunUntil advances to an arbitrary time.
func (n *Network) RunUntil(t sim.Time) { n.Eng.RunUntil(t) }

// Every schedules fn at a fixed period until the scenario ends (sampling
// hook for timelines).
func (n *Network) Every(period sim.Time, fn func(at sim.Time)) {
	var tick func()
	tick = func() {
		fn(n.Eng.Now())
		if n.Eng.Now()+period <= n.Scenario.Duration {
			n.Eng.After(period, tick)
		}
	}
	n.Eng.After(period, tick)
}
