package federation_test

import (
	"fmt"
	"reflect"
	"testing"

	"wgtt/internal/backhaul"
	"wgtt/internal/federation"
	"wgtt/internal/metrics"
	"wgtt/internal/packet"
	"wgtt/internal/selector"
	"wgtt/internal/sim"
)

// fedAP is a scripted AP for federation tests: it answers stops with a
// start at the switch target and starts with an ack to ITS OWN domain
// controller — the addressing property the cross-domain switch depends on.
type fedAP struct {
	bh     *backhaul.Switch
	ip     packet.IPv4Addr
	ctl    packet.IPv4Addr
	stops  []*packet.Stop
	starts []*packet.Start
	downs  []*packet.DownData
	cursor uint16
	ack    bool // answer stops (false black-holes the switch at this AP)
}

func (f *fedAP) HandleBackhaul(from packet.IPv4Addr, msg packet.Message) {
	switch m := msg.(type) {
	case *packet.HealthProbe:
		_ = f.bh.Send(f.ip, f.ctl, &packet.HealthAck{AP: f.ip, Seq: m.Seq, At: m.At})
	case *packet.Stop:
		f.stops = append(f.stops, m)
		if f.ack {
			_ = f.bh.Send(f.ip, m.NextAP, &packet.Start{Client: m.Client, Index: f.cursor, SwitchID: m.SwitchID})
		}
	case *packet.Start:
		f.starts = append(f.starts, m)
		f.cursor = m.Index
		_ = f.bh.Send(f.ip, f.ctl, &packet.SwitchAck{Client: m.Client, AP: f.ip, SwitchID: m.SwitchID})
	case *packet.DownData:
		cp := *m // the envelope is the switch's again after the call
		f.downs = append(f.downs, &cp)
	}
}

// fedHarness assembles nDomains × apsPer domains over one virtual-clock
// switch, with scripted APs wired to their domain controllers.
type fedHarness struct {
	t    *testing.T
	eng  *sim.Engine
	bh   *backhaul.Switch
	city []federation.APAssignment
	doms []*federation.Domain
	tier *federation.Tier
	aps  []*fedAP
}

func newFedHarness(t *testing.T, nDomains, apsPer int, cfg federation.Config) *fedHarness {
	t.Helper()
	eng := sim.NewEngine()
	bh := backhaul.NewSwitch(eng, 200*sim.Microsecond)
	h := &fedHarness{t: t, eng: eng, bh: bh, city: federation.City(nDomains*apsPer, nDomains)}
	for _, a := range h.city {
		ap := &fedAP{bh: bh, ip: a.IP, ctl: packet.DomainControllerIP(a.Domain), ack: true}
		h.aps = append(h.aps, ap)
		bh.Attach(ap.ip, ap)
	}
	for d := 0; d < nDomains; d++ {
		h.doms = append(h.doms, federation.NewDomain(cfg, eng, bh, d, h.city))
	}
	h.tier = federation.NewTier(h.doms)
	return h
}

// feedCSI delivers one CSI report from AP g to g's domain controller, as
// the AP MAC-side would.
func (h *fedHarness) feedCSI(client packet.MACAddr, g int, esnrDB float64) {
	rep := &packet.CSIReport{Client: client, AP: packet.APIP(g), At: int64(h.eng.Now())}
	snr := make([]float64, packet.CSISubcarriers)
	for i := range snr {
		snr[i] = esnrDB
	}
	rep.QuantizeSNR(snr)
	_ = h.bh.Send(packet.APIP(g), packet.DomainControllerIP(h.city[g].Domain), rep)
}

// admit enters a fresh client into the tier at AP 0: an empty bundle.
func (h *fedHarness) admit(client packet.MACAddr) {
	h.t.Helper()
	commit := &packet.DomainHandoffCommit{Client: client, ClientIP: packet.ClientIP(1), TargetAP: packet.APIP(0)}
	if err := h.tier.Admit(commit); err != nil {
		h.t.Fatal(err)
	}
}

func (h *fedHarness) run(d sim.Time) { h.eng.RunUntil(h.eng.Now() + d) }

// offerToDeadPeer admits a client to domain 0, crashes domain 1 so no
// offer is ever answered, and feeds evidence until domain 0 has offered the
// client away. With controller 1 dead the AP2 relay path is dead too, so the
// foreign reports go straight to the owner (exactly what the relay does).
func (h *fedHarness) offerToDeadPeer(client packet.MACAddr) {
	h.t.Helper()
	h.admit(client)
	h.doms[1].Crash()
	for i := 0; i < 12 && h.doms[0].Stats.OffersSent == 0; i++ {
		h.feedCSI(client, 0, 6)
		rep := &packet.CSIReport{Client: client, AP: packet.APIP(2), At: int64(h.eng.Now())}
		snr := make([]float64, packet.CSISubcarriers)
		for j := range snr {
			snr[j] = 22
		}
		rep.QuantizeSNR(snr)
		_ = h.bh.Send(packet.DomainControllerIP(1), packet.DomainControllerIP(0), rep)
		h.run(2 * sim.Millisecond)
	}
	if h.doms[0].Stats.OffersSent == 0 {
		h.t.Fatal("setup: no offer was ever sent")
	}
}

// City splits its APs into contiguous, near-equal domain blocks, each AP at
// its canonical address.
func TestCityContiguousBlocks(t *testing.T) {
	for _, c := range []struct {
		aps, domains int
		want         []int
	}{
		{2, 1, []int{0, 0}},
		{2, 2, []int{0, 1}},
		{8, 2, []int{0, 0, 0, 0, 1, 1, 1, 1}},
		{7, 3, []int{0, 0, 0, 1, 1, 2, 2}},
		{3, 3, []int{0, 1, 2}},
	} {
		city := federation.City(c.aps, c.domains)
		var got []int
		for i, a := range city {
			if a.ID != i || a.IP != packet.APIP(i) || a.MAC != packet.APMAC(i) {
				t.Fatalf("City(%d, %d)[%d] = %+v, want AP %d's id and addresses", c.aps, c.domains, i, a, i)
			}
			got = append(got, a.Domain)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("City(%d, %d) domains = %v, want %v", c.aps, c.domains, got, c.want)
		}
	}
}

// Admission is where ownership starts: the domain holding the commit's
// TargetAP owns the client and every other domain points at it, so exactly
// one domain owns a client; an admission at an AP the city does not have
// changes nothing.
func TestAdmitStartsOwnershipInOneDomain(t *testing.T) {
	h := newFedHarness(t, 3, 2, federation.DefaultConfig())
	client := packet.ClientMAC(1)
	bad := &packet.DomainHandoffCommit{Client: client, ClientIP: packet.ClientIP(1), TargetAP: packet.APIP(99)}
	if err := h.tier.Admit(bad); err == nil {
		t.Fatal("admission at an AP outside the city accepted")
	}
	if g := h.tier.ServingAP(client); g != -1 {
		t.Fatalf("a refused admission left the client served by AP %d", g)
	}
	commit := &packet.DomainHandoffCommit{Client: client, ClientIP: packet.ClientIP(1), TargetAP: packet.APIP(3)}
	if err := h.tier.Admit(commit); err != nil {
		t.Fatal(err)
	}
	for d, dom := range h.doms {
		if dom.Owns(client) != (d == 1) {
			t.Errorf("domain %d owns the client: %v, want only domain 1 (AP 3's)", d, dom.Owns(client))
		}
	}
	if g := h.tier.ServingAP(client); g != 3 {
		t.Fatalf("serving AP %d, want the commit's target 3", g)
	}
	// A domain that does not own the client forwards its downlink to the owner.
	if err := h.doms[2].SendDownlink(&packet.Packet{ClientMAC: client, Bytes: 100}); err != nil {
		t.Fatalf("non-owner has no owner on record: %v", err)
	}
}

// quickConfig shrinks the dwell times so tests converge in simulated
// milliseconds.
func quickConfig() federation.Config {
	cfg := federation.DefaultConfig()
	cfg.Hysteresis = 15 * sim.Millisecond
	cfg.Controller.Hysteresis = 20 * sim.Millisecond
	return cfg
}

// A vehicle client crossing from domain 0's corridor into domain 1's must
// be handed off: offer/accept/commit between the controllers, then a
// cross-domain stop→start→ack driven by the adopter — with the downlink
// index cursor and dedup window surviving the move.
func TestCrossDomainHandoffCompletes(t *testing.T) {
	h := newFedHarness(t, 2, 2, quickConfig())
	client := packet.ClientMAC(1)
	h.admit(client)

	// Pre-handoff traffic: 5 downlink packets advance domain 0's index
	// cursor; one uplink packet charges the dedup window.
	for i := 0; i < 5; i++ {
		if err := h.tier.SendDownlink(&packet.Packet{ClientMAC: client, Bytes: 1400}); err != nil {
			t.Fatal(err)
		}
	}
	up := &packet.Packet{ClientMAC: client, SrcIP: packet.ClientIP(1), IPID: 777, Uplink: true, Bytes: 200}
	_ = h.bh.Send(packet.APIP(0), packet.DomainControllerIP(0), &packet.UpData{APSrc: packet.APIP(0), Pkt: up})
	h.run(2 * sim.Millisecond)

	// Drive across the boundary: AP0 (domain 0) fades, AP2 (domain 1)
	// strengthens. AP2's reports reach controller 1, which relays them to
	// the owner, controller 0 — the evidence that triggers the offer.
	for i := 0; i < 80 && h.doms[1].Stats.CrossSwitches == 0; i++ {
		h.feedCSI(client, 0, 6)
		h.feedCSI(client, 2, 22)
		h.run(2 * sim.Millisecond)
	}

	if !h.doms[1].Owns(client) || h.doms[0].Owns(client) {
		t.Fatal("client not owned by domain 1 alone after the handoff")
	}
	d0, d1 := h.doms[0].Stats, h.doms[1].Stats
	if d0.OffersSent != 1 || d0.Commits != 1 {
		t.Errorf("domain 0 stats = %+v, want 1 offer, 1 commit", d0)
	}
	if d1.Adoptions != 1 || d1.CrossSwitches != 1 {
		t.Errorf("domain 1 stats = %+v, want 1 adoption, 1 cross-switch", d1)
	}
	if got := h.tier.ServingAP(client); got != 2 {
		t.Errorf("serving AP = %d, want 2", got)
	}
	if len(h.aps[0].stops) == 0 {
		t.Error("old domain's AP never received the cross-domain stop")
	}
	if len(h.aps[2].starts) == 0 {
		t.Error("new domain's AP never received the start")
	}
	if len(h.doms[0].Offered) != 1 || len(h.doms[1].Adopted) != 1 {
		t.Fatalf("handoff records: offered=%d adopted=%d", len(h.doms[0].Offered), len(h.doms[1].Adopted))
	}
	if rec := h.doms[1].Adopted[0]; rec.Client != client || rec.From != 0 || rec.To != 2 || rec.Duration <= 0 || rec.Forced {
		t.Errorf("adopted record = %+v", rec)
	}
	if d := h.doms[0].Offered[0]; d <= 0 {
		t.Errorf("offer -> commit = %v, want > 0", d)
	}

	// Index continuity: domain 1 continues the cursor at 5 — no reset, no
	// re-association gap in the 12-bit sequence.
	if err := h.tier.SendDownlink(&packet.Packet{ClientMAC: client, Bytes: 1400}); err != nil {
		t.Fatal(err)
	}
	h.run(2 * sim.Millisecond)
	found := false
	for _, ap := range h.aps[2:] { // domain 1's APs
		for _, dd := range ap.downs {
			if dd.Pkt.Index == 5 {
				found = true
			}
		}
	}
	if !found {
		t.Error("post-handoff downlink did not continue at index 5")
	}

	// Dedup continuity: replaying the pre-handoff uplink key at domain 1
	// must be recognized as a duplicate, not delivered again.
	_ = h.bh.Send(packet.APIP(2), packet.DomainControllerIP(1), &packet.UpData{APSrc: packet.APIP(2), Pkt: up})
	h.run(2 * sim.Millisecond)
	if dup := h.doms[1].Controller().Stats.UplinkDuplicate; dup != 1 {
		t.Errorf("uplink duplicates after handoff = %d, want 1 (dedup window transferred)", dup)
	}
}

// A handoff decision arriving while the inner controller has a switch in
// flight (stop sent, start pending) must be deferred, and the client must
// come out the other side unstranded: the intra-domain switch completes,
// then the cross-domain handoff proceeds.
func TestHandoffDeferredMidSwitch(t *testing.T) {
	cfg := quickConfig()
	cfg.Controller.Hysteresis = 0
	h := newFedHarness(t, 2, 2, cfg)
	client := packet.ClientMAC(1)
	h.admit(client)
	h.aps[0].ack = false // strand the intra-domain switch AP0→AP1 in flight

	// AP1 (same domain) looks better → controller 0 starts a switch that
	// cannot complete; AP2 (domain 1) looks better still → the federation
	// layer must hold its offer.
	for i := 0; i < 10; i++ {
		h.feedCSI(client, 0, 5)
		h.feedCSI(client, 1, 15)
		h.run(2 * sim.Millisecond)
	}
	if h.doms[0].Controller().Stats.SwitchesStarted != 1 {
		t.Fatalf("setup: no intra-domain switch in flight")
	}
	for i := 0; i < 10; i++ {
		h.feedCSI(client, 2, 25)
		h.run(2 * sim.Millisecond)
	}
	if h.doms[0].Stats.OffersSent != 0 {
		t.Fatalf("offer sent while a switch was in flight")
	}

	// Un-jam the old AP: the stop retransmission completes the inner
	// switch, after which the still-superior foreign evidence may fire.
	h.aps[0].ack = true
	for i := 0; i < 100 && h.doms[1].Stats.CrossSwitches == 0; i++ {
		h.feedCSI(client, 1, 15)
		h.feedCSI(client, 2, 25)
		h.run(2 * sim.Millisecond)
	}

	if h.doms[0].Controller().Stats.SwitchesDone != 1 {
		t.Errorf("inner switch never completed: %+v", h.doms[0].Controller().Stats)
	}
	if h.doms[1].Stats.CrossSwitches != 1 {
		t.Fatalf("cross-domain switch never completed: %+v", h.doms[1].Stats)
	}
	if !h.doms[1].Owns(client) || h.tier.ServingAP(client) != 2 {
		t.Errorf("client stranded: serving=%d", h.tier.ServingAP(client))
	}
	// The client must not be left frozen: domain 1 can still switch it.
	if h.doms[0].Controller().ServingAP(client) != -1 {
		t.Error("old domain still holds client state after release")
	}
}

// An offer toward a dead controller must abort on timeout and leave the
// client owned, thawed, and switchable at home.
func TestOfferTimeoutAborts(t *testing.T) {
	h := newFedHarness(t, 2, 2, quickConfig())
	client := packet.ClientMAC(1)
	h.offerToDeadPeer(client)
	h.run(60 * sim.Millisecond) // past OfferTimeout

	if h.doms[0].Stats.Aborts == 0 {
		t.Error("unanswered offer never aborted")
	}
	if !h.doms[0].Owns(client) || h.doms[1].Owns(client) {
		t.Error("client lost its owner after an aborted offer")
	}
	// Thawed: the home controller can still run §3.1.1 switches (AP1 is
	// local and better than AP0).
	for i := 0; i < 60 && h.doms[0].Controller().Stats.SwitchesDone == 0; i++ {
		h.feedCSI(client, 0, 6)
		h.feedCSI(client, 1, 20)
		h.run(2 * sim.Millisecond)
	}
	if h.doms[0].Controller().Stats.SwitchesDone == 0 {
		t.Error("client left frozen after abort: home controller cannot switch it")
	}
}

// A controller crash landing while an offer is in flight aborts the offer
// in Domain.Crash, not on the timeout path. The -metrics row and the
// report line read the same storage, so they agree there too (the registry's
// own abort counter used to miss this path).
func TestCrashMidOfferAbortIsInSnapshot(t *testing.T) {
	h := newFedHarness(t, 2, 2, quickConfig())
	reg := metrics.NewRegistry()
	for _, d := range h.doms {
		d.UseMetrics(reg)
	}
	h.offerToDeadPeer(packet.ClientMAC(1))

	// Domain 1 is already down, so the injector's guard would spare the
	// last live domain: the crash is applied directly.
	h.eng.At(h.eng.Now()+sim.Millisecond, h.doms[0].Crash)
	h.run(2 * sim.Millisecond) // well inside OfferTimeout
	if !h.doms[0].Down() {
		t.Fatal("setup: the crash did not land on the offering domain")
	}

	aborts := h.tier.Stats().Fed.Aborts
	if aborts != 1 {
		t.Errorf("summed Stats.Aborts = %d, want the one in-flight offer", aborts)
	}
	for _, c := range reg.Snapshot().Counters {
		if c.Component == "federation" && c.Name == "handoff_aborts" && c.Value != aborts {
			t.Errorf("snapshot federation/handoff_aborts = %d, Stats.Aborts sum to %d", c.Value, aborts)
		}
	}
}

// Tier.Stats must carry every counter of both Stats structs: each uint64
// field is given a distinct value per domain, and the tier must report the
// sum (a hand-written sum once dropped CollapseSwitches).
func TestTierStatsCarriesEveryCounter(t *testing.T) {
	h := newFedHarness(t, 2, 2, quickConfig())
	fill := func(stats any, scale uint64) {
		v := reflect.ValueOf(stats).Elem()
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).Kind() == reflect.Uint64 {
				v.Field(i).SetUint(scale * uint64(i+1))
			}
		}
	}
	for i, d := range h.doms {
		fill(&d.Stats, uint64(i+1))
		fill(&d.Controller().Stats, uint64(i+1))
	}
	ts := h.tier.Stats()
	for _, sum := range []any{ts.Fed, ts.Ctl} {
		v := reflect.ValueOf(sum)
		for i := 0; i < v.NumField(); i++ {
			if want := 3 * uint64(i+1); v.Field(i).Kind() == reflect.Uint64 && v.Field(i).Uint() != want {
				t.Errorf("%s.%s = %d, want %d: Stats.Add does not carry it",
					v.Type(), v.Type().Field(i).Name, v.Field(i).Uint(), want)
			}
		}
	}
}

// The commit carries released state, so it must survive loss: drop the
// first commit datagram and let the retransmission loop deliver it.
func TestCommitRetransmitOnLoss(t *testing.T) {
	h := newFedHarness(t, 2, 2, quickConfig())
	client := packet.ClientMAC(1)
	h.admit(client)
	dropped := 0
	h.bh.Drop = func(to packet.IPv4Addr, msg packet.Message) bool {
		if c, ok := msg.(*packet.DomainHandoffCommit); ok && len(c.DedupKeys)+len(c.Evidence) > 0 && dropped == 0 {
			dropped++ // lose only the first full commit, not the slim echoes
			return true
		}
		return false
	}
	// Charge the dedup window so the full commit is distinguishable from
	// the slim announcement.
	up := &packet.Packet{ClientMAC: client, SrcIP: packet.ClientIP(1), IPID: 9, Uplink: true, Bytes: 100}
	_ = h.bh.Send(packet.APIP(0), packet.DomainControllerIP(0), &packet.UpData{APSrc: packet.APIP(0), Pkt: up})

	for i := 0; i < 120 && h.doms[1].Stats.CrossSwitches == 0; i++ {
		h.feedCSI(client, 0, 6)
		h.feedCSI(client, 2, 22)
		h.run(2 * sim.Millisecond)
	}

	if dropped != 1 {
		t.Fatalf("setup: commit was never dropped")
	}
	if h.doms[0].Stats.CommitRetransmits == 0 {
		t.Error("lost commit was never retransmitted")
	}
	if h.doms[1].Stats.Adoptions != 1 || h.doms[1].Stats.CrossSwitches != 1 {
		t.Fatalf("handoff never completed after commit loss: %+v", h.doms[1].Stats)
	}
	if !h.doms[1].Owns(client) {
		t.Error("ownership did not transfer")
	}
}

// If the old domain's AP never cooperates with the cross-domain stop, the
// adopter's controller must escalate to a direct start once its stop budget
// (8 stops, 30 ms apart) is spent.
func TestCrossSwitchForcedStart(t *testing.T) {
	h := newFedHarness(t, 2, 2, quickConfig())
	client := packet.ClientMAC(1)
	h.admit(client)
	h.aps[0].ack = false // the old AP ignores stops forever

	for i := 0; i < 300 && h.doms[1].Stats.CrossSwitches == 0; i++ {
		h.feedCSI(client, 0, 6)
		h.feedCSI(client, 2, 22)
		h.run(2 * sim.Millisecond)
	}

	st := h.doms[1].Stats
	if got := len(h.aps[0].stops); got != 8 {
		t.Errorf("old AP saw %d stops before the escalation, want 8", got)
	}
	if st.CrossSwitches != 1 || st.ForcedStarts != 1 {
		t.Fatalf("stats = %+v, want a forced cross-switch", st)
	}
	if len(h.doms[1].Adopted) != 1 || !h.doms[1].Adopted[0].Forced {
		t.Error("adopted record not marked forced")
	}
	if h.tier.ServingAP(client) != 2 {
		t.Errorf("serving = %d, want 2", h.tier.ServingAP(client))
	}
}

// Handoff counters and spans must land in the metrics registry under the
// federation component and the handoff tracker.
func TestFederationMetrics(t *testing.T) {
	h := newFedHarness(t, 2, 2, quickConfig())
	reg := metrics.NewRegistry()
	for _, d := range h.doms {
		d.UseMetrics(reg)
	}
	client := packet.ClientMAC(1)
	h.admit(client)
	for i := 0; i < 80 && h.doms[1].Stats.CrossSwitches == 0; i++ {
		h.feedCSI(client, 0, 6)
		h.feedCSI(client, 2, 22)
		h.run(2 * sim.Millisecond)
	}
	snap := reg.Snapshot()
	get := func(name string) uint64 {
		for _, c := range snap.Counters {
			if c.Component == "federation" && c.Name == name {
				return c.Value
			}
		}
		return 0
	}
	if get("handoff_offers") != 1 || get("handoff_commits") != 1 {
		t.Errorf("counters: offers=%d commits=%d, want 1/1", get("handoff_offers"), get("handoff_commits"))
	}
	var handoffSpans, fedSwitchSpans int
	for _, sp := range snap.Spans {
		if sp.Tracker == metrics.HandoffSpanTracker {
			handoffSpans++
			if !sp.Completed || sp.Cause != metrics.CauseDomainHandoff {
				t.Errorf("handoff span = %+v", sp)
			}
		}
		if sp.Tracker == "" && sp.Cause == metrics.CauseDomainHandoff {
			fedSwitchSpans++
			if !sp.Completed {
				t.Errorf("fed switch span incomplete: %+v", sp)
			}
		}
	}
	if handoffSpans != 1 || fedSwitchSpans != 1 {
		t.Errorf("spans: handoff=%d fed-switch=%d, want 1/1", handoffSpans, fedSwitchSpans)
	}
}

// A handoff must carry the client's selection evidence whichever policy
// the domains run (DESIGN.md §15): all policies share the median-window
// evidence store, so the commit's quantized medians seed the adopter's
// selector and the handoff completes identically under each. Asserts, per
// policy: the adoption happens and the adopter's selector holds warm
// evidence for the target AP immediately after the cross-domain switch.
func TestHandoffCarriesSelectorStateAllPolicies(t *testing.T) {
	for _, pol := range selector.Policies() {
		t.Run(string(pol), func(t *testing.T) {
			cfg := quickConfig()
			cfg.Controller.Policy = pol
			h := newFedHarness(t, 2, 2, cfg)
			client := packet.ClientMAC(1)
			h.admit(client)
			for i := 0; i < 80 && h.doms[1].Stats.CrossSwitches == 0; i++ {
				h.feedCSI(client, 0, 6)
				h.feedCSI(client, 2, 22)
				h.run(2 * sim.Millisecond)
			}
			if !h.doms[1].Owns(client) {
				t.Fatalf("domain 1 never adopted the client (policy %s)", pol)
			}
			adopter := h.doms[1].Controller()
			// AP 2, domain 1's first, is the handoff target. The adopter's
			// selector must already hold usable evidence for it (commit
			// seeding plus relayed reports), not start blind.
			med, ok := adopter.MedianESNR(client, 2)
			if !ok || med < 15 {
				t.Fatalf("adopter median for target AP = %.1f, ok=%v — selector state did not survive the handoff", med, ok)
			}
			if got := h.tier.ServingAP(client); got != 2 {
				t.Fatalf("serving AP = %d, want 2", got)
			}
			// Keep traffic flowing past the post-adoption hysteresis dwell:
			// the adopter's policy must evaluate the client (not just hold
			// it), and the tier-wide stats must sum the policy counters
			// from both domains' controllers.
			for i := 0; i < 20; i++ {
				h.feedCSI(client, 2, 22)
				h.run(3 * sim.Millisecond)
			}
			ts := h.tier.Stats()
			if ts.Ctl.SelectionDecisions == 0 {
				t.Fatalf("tier stats: selection decisions = 0, want > 0")
			}
			if pol == selector.GlobalAssignPolicy && ts.Ctl.AssignmentRounds == 0 {
				t.Fatalf("tier stats: assignment rounds = 0 under global-assign, want > 0")
			}
		})
	}
}

// The handoff machine under dropped messages (ROADMAP 3(b)): per seed, 60%
// of every handoff and switching message is lost while the evidence favours
// domain 1's AP 2, then the loss clears. Whatever was dropped, no step may
// see two owners; once the backhaul is clean exactly domain 1 owns the
// client, serving from AP 2; and the machine is not wedged — the handoff
// back to domain 0 completes.
func TestHandoffMachineUnderLoss(t *testing.T) {
	for seed := uint64(0); seed < 400; seed++ {
		h := newFedHarness(t, 2, 2, quickConfig())
		h.bh.Drop = backhaul.DropTypes(0.6, sim.NewRNG(seed).Stream("loss"),
			packet.MsgDomainHandoffOffer, packet.MsgDomainHandoffAccept, packet.MsgDomainHandoffCommit,
			packet.MsgStop, packet.MsgStart, packet.MsgSwitchAck)
		h.checkHandoffMachine(fmt.Sprintf("seed %d", seed), func() { h.bh.Drop = nil })
	}
}

// checkHandoffMachine admits client 1 to domain 0 and drives it toward
// domain 1's AP 2 for 600 steps under whatever faults the caller installed,
// then calls lift to remove them. No step may see two owners; once lifted,
// exactly domain 1 owns the client, serving from AP 2 with no switch in
// flight; the machine is not wedged — the handoff back to domain 0 settles
// the same way; and the tier spoke one AP namespace throughout
// (oneNamespace).
func (h *fedHarness) checkHandoffMachine(label string, lift func()) {
	t := h.t
	t.Helper()
	reg := metrics.NewRegistry()
	for _, d := range h.doms {
		d.UseMetrics(reg)
	}
	client := packet.ClientMAC(1)
	h.admit(client)
	step := func(weak, strong int) {
		h.feedCSI(client, weak, 6)
		h.feedCSI(client, strong, 22)
		h.run(2 * sim.Millisecond)
		if h.doms[0].Owns(client) && h.doms[1].Owns(client) {
			t.Fatalf("%s: two owners at %v", label, h.eng.Now())
		}
	}
	settled := func(own, ap int) bool {
		return h.doms[own].Owns(client) && !h.doms[1-own].Owns(client) &&
			h.tier.ServingAP(client) == ap && !h.doms[own].Controller().InFlightSwitch(client)
	}
	for i := 0; i < 600; i++ {
		step(0, 2)
	}
	h.oneNamespace(label, client, reg)
	lift()
	for i := 0; i < 400 && !settled(1, 2); i++ {
		step(0, 2)
	}
	if !settled(1, 2) {
		t.Fatalf("%s: owner0=%v owner1=%v serving=%d dom0=%+v dom1=%+v", label,
			h.doms[0].Owns(client), h.doms[1].Owns(client), h.tier.ServingAP(client),
			h.doms[0].Stats, h.doms[1].Stats)
	}
	h.oneNamespace(label, client, reg)
	for i := 0; i < 400 && !settled(0, 0); i++ {
		step(2, 0)
	}
	if !settled(0, 0) {
		t.Fatalf("%s: the handoff back never completed: serving=%d dom0=%+v dom1=%+v", label,
			h.tier.ServingAP(client), h.doms[0].Stats, h.doms[1].Stats)
	}
	h.oneNamespace(label, client, reg)
}

// oneNamespace asserts that every AP the tier names is the city table's id,
// owned by the domain the record says: the owner's inner controller serves
// the client from one of its own APs; a domain's inner ledger and a switch
// span name APs of the domain that recorded them, which minted the span's
// id (id >> 24) — except a pull's, which the adopter records under the
// offerer's handoff id: From is the offerer's AP, To another domain's; an
// adopted record moves the client from another domain's AP onto ours; and
// every committed offer took positive time.
func (h *fedHarness) oneNamespace(label string, client packet.MACAddr, reg *metrics.Registry) {
	t := h.t
	t.Helper()
	owner := func(ap int) int {
		if ap < 0 || ap >= len(h.city) {
			return -1
		}
		return h.city[ap].Domain
	}
	for dom, d := range h.doms {
		if s := d.Controller().ServingAP(client); d.Owns(client) && owner(s) != dom {
			t.Fatalf("%s: domain %d's controller serves the client from AP %d", label, dom, s)
		}
		for _, rec := range d.Controller().History {
			if owner(rec.From) != dom || owner(rec.To) != dom {
				t.Fatalf("%s: domain %d's ledger names another domain's AP: %+v", label, dom, rec)
			}
		}
		for _, took := range d.Offered {
			if took <= 0 {
				t.Fatalf("%s: domain %d committed an offer after %v", label, dom, took)
			}
		}
		for _, rec := range d.Adopted {
			if owner(rec.To) != dom || owner(rec.From) == dom {
				t.Fatalf("%s: domain %d adopted %+v", label, dom, rec)
			}
		}
	}
	for _, sp := range reg.Snapshot().Spans {
		if sp.Tracker != "" && sp.Tracker != metrics.SwitchSpanTracker {
			continue
		}
		dom := int(sp.ID >> 24)
		pull := sp.Cause == metrics.CauseDomainHandoff
		if (sp.From >= 0 && owner(sp.From) != dom) || (owner(sp.To) == dom) == pull {
			t.Fatalf("%s: switch span %#x (%s) names AP %d -> %d, minted by domain %d", label, sp.ID, sp.Cause, sp.From, sp.To, dom)
		}
	}
}
