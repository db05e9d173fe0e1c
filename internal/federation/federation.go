// Package federation is the city-scale controller tier (DESIGN.md §13). The
// paper runs one controller per corridor (§3); a transit city is a graph of
// corridors, each owned by its own controller *domain* — a controller
// instance plus the set of APs it commands. Clients are sharded by
// ownership: exactly one domain runs the §3.1.1 selection rule and §3.1.2
// switching protocol for each client at any time. When a client's best ESNR
// evidence crosses into a neighboring domain, the owning controller exports
// the client's volatile state — 12-bit downlink index cursor, uplink dedup
// window, current association, ESNR history — over the backhaul via the
// DomainHandoffOffer/Accept/Commit wire messages, and the adopting domain's
// controller runs the stop→start→ack protocol against the old domain's AP,
// pulling the client onto its own AP without a re-association gap. Every
// WGTT network runs this tier: the paper's single controller is the
// one-domain case, which hands nothing off.
//
// A Domain wraps a controller.Controller: it attaches itself at the
// domain's backhaul address (packet.DomainControllerIP) in the controller's
// place, intercepts federation traffic, and forwards everything else to the
// inner controller. The inner controller is unaware of the tier — it only
// exposes adopt/release/pull/freeze hooks, and it alone sends stop and start
// and hears the ack. Like every protocol core in this
// repo, a Domain schedules on one sim.Engine and is transport-agnostic
// (DESIGN.md §12): the same code runs deterministically in virtual time over
// the in-memory switch, and on an engine paced by runtime.Wall over real UDP
// sockets between OS processes.
package federation

import (
	"errors"
	"fmt"
	"slices"

	"wgtt/internal/backhaul"
	"wgtt/internal/controller"
	"wgtt/internal/metrics"
	"wgtt/internal/packet"
	"wgtt/internal/selector"
	"wgtt/internal/sim"
)

// Config parameterizes one federation domain. The cross-domain decision
// rule deliberately runs coarser than the intra-domain §3.1.1 rule: a
// handoff moves ownership, state, and the client's switch, so it should
// fire when the vehicle has clearly crossed the boundary, not on a median
// flicker.
type Config struct {
	// Controller is the inner per-domain controller configuration; NewDomain
	// overrides Addr and SwitchIDBase per domain. Its §3.1.1 evidence gates
	// — Window, MinSamples and MinSwitchESNRdB — gate the foreign evidence
	// too.
	Controller controller.Config

	// MarginDB requires the best foreign median to beat the best local
	// median by this much before a handoff is offered.
	MarginDB float64
	// Hysteresis is the minimum dwell between handoffs of one client —
	// applied on both sides of the boundary, so a freshly adopted client is
	// not immediately bounced back.
	Hysteresis sim.Time
}

// DefaultConfig returns the standard federation operating point. Callers
// start from it and override fields; a zero Config is not usable.
func DefaultConfig() Config {
	return Config{
		Controller: controller.DefaultConfig(),
		MarginDB:   3,
		Hysteresis: 250 * sim.Millisecond,
	}
}

// The fixed half of the handoff protocol (DESIGN.md §13): the offer/commit
// retransmission budget, which reuses §3.1.2's 30 ms control timeout.
const (
	// offerTimeout bounds the offer→accept wait; expiry aborts the handoff
	// and the client stays with its owner.
	offerTimeout = 30 * sim.Millisecond
	// commitTimeout paces commit retransmission, which only the adopter's
	// ownership announcement echoing back (or Crash) ends.
	commitTimeout = 30 * sim.Millisecond
	// acceptHold is how long an accepted offer stays pre-staged waiting for
	// its commit; if none ever lands (the offerer died), it is dropped.
	acceptHold = 300 * sim.Millisecond
)

// APAssignment places one AP of the city in a domain. The city table —
// every AP, indexed by its ID — is shared by all domains, so each can map
// any backhaul address to (domain, ID). That ID is the AP's one name across
// the tier: the domain's controller commands its APs by it too.
type APAssignment struct {
	controller.APInfo
	Domain int
}

// City is the city table of aps APs over domains controller domains: AP i at
// packet.APIP(i)/APMAC(i), in domain i·domains/aps — contiguous, near-equal
// blocks. One domain is the single controller over every AP; two domains
// over two APs is the smallest city with an inter-controller handoff.
func City(aps, domains int) []APAssignment {
	city := make([]APAssignment, aps)
	for i := range city {
		ap := controller.APInfo{ID: i, IP: packet.APIP(i), MAC: packet.APMAC(i)}
		city[i] = APAssignment{APInfo: ap, Domain: i * domains / aps}
	}
	return city
}

// Stats counts one domain's federation activity. Two conservation laws
// hold at every instant, which Conserved checks (with the inner
// controller's, whose pulls complete on Adopted):
//
//	handoffs: OffersSent + OffersRecv = Commits + Aborts + OffersRejected
//	          + OffersReaccepted + (Adoptions − UnsolicitedAdoptions)
//	          + offers outstanding + accepts staged
//	buffer:   DownBuffered = DownDrained + DownDiscarded + packets held
//
// An offer this domain sent ends committed or aborted; one it received is
// rejected, re-accepted (a duplicate of a staged one), or staged, and a
// staged accept ends adopted or aborted. Commits also equals len(Offered),
// and the cross-domain switches are the Adopted ledger itself.
type Stats struct {
	OffersSent       uint64 `metric:"handoff_offers"` // handoffs this domain offered away
	OffersRecv       uint64 // offers received from peers
	OffersRejected   uint64 // received offers this domain declined
	OffersReaccepted uint64 // duplicates of a staged offer, accepted again
	Commits          uint64 `metric:"handoff_commits"` // commits sent (ownership released)
	Adoptions        uint64 // commits applied (ownership assumed)
	// UnsolicitedAdoptions counts commits applied with no accept staged
	// for them (timed out, lost to a crash, or never exchanged).
	UnsolicitedAdoptions uint64
	Aborts               uint64 `metric:"handoff_aborts"` // handoffs abandoned (timeout, rejection, crash)
	CSIRelays            uint64 `metric:"csi_relays"`     // foreign-owned CSI reports relayed to their owner
	UplinkRelays         uint64 `metric:"uplink_relays"`  // foreign-owned uplink relayed to their owner
	// DownBuffered counts downlink held for a client whose commit is in
	// flight; each is drained to the controller at adoption, or discarded
	// when the accept times out or the domain crashes.
	DownBuffered  uint64
	DownDrained   uint64
	DownDiscarded uint64
}

// Conserved checks the laws of Stats, and the inner controller's, against
// the state machines as they stand.
func (d *Domain) Conserved() error {
	var offered, held uint64
	for _, fc := range d.owned {
		if fc.out != nil {
			offered++
		}
	}
	for _, q := range d.pendingDown {
		held += uint64(len(q))
	}
	st := &d.Stats
	err := errors.Join(
		d.ctl.Conserved(uint64(len(d.Adopted))),
		metrics.Conserved("federation",
			"handoffs: offers sent + received = commits + aborts + rejected + re-accepted + adopted as staged + offered + staged",
			st.OffersSent+st.OffersRecv,
			st.Commits+st.Aborts+st.OffersRejected+st.OffersReaccepted+
				st.Adoptions-st.UnsolicitedAdoptions+offered+uint64(len(d.byClient))),
		metrics.Conserved("federation", "commits: Commits = len(Offered)", st.Commits, uint64(len(d.Offered))),
		metrics.Conserved("federation", "buffer: buffered = drained + discarded + held",
			st.DownBuffered, st.DownDrained+st.DownDiscarded+held))
	if err != nil {
		return fmt.Errorf("domain %d: %w", d.id, err)
	}
	return nil
}

// fedMetrics holds the domain's span trackers (all nil-safe).
type fedMetrics struct {
	handoffSpans *metrics.SpanTracker
	switchSpans  *metrics.SpanTracker
}

// UseMetrics wires the inner controller's instruments into r and names the
// domain's counters — Stats fields — and span trackers (nil disables). A
// lone domain hands nothing off, so it adds no federation rows.
func (d *Domain) UseMetrics(r *metrics.Registry) {
	d.ctl.UseMetrics(r)
	if len(d.domains) < 2 {
		return
	}
	r.Counters("federation", &d.Stats)
	d.met = fedMetrics{
		handoffSpans: r.HandoffSpans(),
		switchSpans:  r.SwitchSpans(),
	}
}

// fedClient is the federation-layer state of a client this domain owns.
type fedClient struct {
	mac packet.MACAddr
	ip  packet.IPv4Addr
	// foreign holds per-foreign-AP evidence windows — the §3.1.1 windowed
	// median the selector runs per (client, AP), kept at the federation
	// layer for APs the inner controller must never see (its AP table is
	// local-only), allocated on the first foreign report; foreignOrder lists
	// their keys in first-heard order (deterministic iteration).
	foreign      map[packet.IPv4Addr]*selector.Window
	foreignOrder []packet.IPv4Addr
	lastHandoff  sim.Time
	out          *outHandoff // in-flight outgoing offer, nil when idle
}

// outHandoff is one offered-away handoff awaiting accept.
type outHandoff struct {
	id        uint32
	peer      int // target domain
	target    packet.IPv4Addr
	offeredAt sim.Time
	timer     sim.Timer
}

// release is a committed transfer awaiting the adopter's announcement echo.
type release struct {
	id     uint32
	peer   int
	commit *packet.DomainHandoffCommit
	timer  sim.Timer
}

// adoption is one incoming handoff, accepted and awaiting its commit.
type adoption struct {
	id     uint32
	client packet.MACAddr
	oldAP  packet.IPv4Addr // the offerer's serving AP
	timer  sim.Timer
}

// Domain is one federation controller instance: an inner
// controller.Controller owning a contiguous set of APs, plus the handoff
// state machines that move clients between domains.
type Domain struct {
	// cfg holds the handoff rule's knobs: the controller's §3.1.1 evidence
	// gates (Window, MinSamples, MinSwitchESNRdB) and Config's own.
	cfg Config

	id   int
	addr packet.IPv4Addr
	eng  *sim.Engine
	bh   backhaul.Fabric
	ctl  *controller.Controller

	city    []APAssignment                   // indexed by AP id
	apAt    map[packet.IPv4Addr]APAssignment // any AP IP → its city entry
	domains []int                            // sorted domain ids present in the city

	// owner is this domain's view of the client→domain directory; owned
	// holds federation state for the clients it owns itself.
	owner map[packet.MACAddr]int
	owned map[packet.MACAddr]*fedClient

	// The handoff machine's state, allocated only when the city has a peer
	// domain: a lone domain drops every offer and commit (they can only come
	// from a peer), so it never writes these.
	released   map[uint32]*release
	byClient   map[packet.MACAddr]*adoption // staged adoptions, at most one per client
	adoptedIDs map[uint32]bool              // commits already applied (retransmit dedup)

	// pendingDown buffers downlink routed here between the owner's release
	// and the commit's arrival; drained in order at adoption.
	pendingDown map[packet.MACAddr][]*packet.Packet

	handoffSeq uint32
	// csiScratch is the reusable subcarrier unpack buffer (single protocol
	// goroutine, same pattern as the inner controller's).
	csiScratch []float64

	// OnSwitch observes every completed switch in this domain — the inner
	// controller's, plus the cross-domain pulls that land on this domain's
	// ledger instead of the controller's.
	OnSwitch func(rec controller.SwitchRecord)
	// OnRelease observes ownership leaving this domain (commit sent); the
	// Tier uses it to flip sim-side downlink routing.
	OnRelease func(mac packet.MACAddr, to int)

	Stats Stats
	// Offered holds each committed handoff's offer→commit transfer time.
	// Adopted is the ledger of the cross-domain switches this domain
	// drove — each pull's record as PullFrom reported it, From an AP of
	// the offering domain and To one of ours (DESIGN.md §13).
	Offered []sim.Time
	Adopted []controller.SwitchRecord

	met fedMetrics
}

// NewDomain builds the controller for domain id over the given city table
// and attaches it (wrapping its inner controller) to the backhaul at
// packet.DomainControllerIP(id).
func NewDomain(cfg Config, eng *sim.Engine, bh backhaul.Fabric, id int, city []APAssignment) *Domain {
	d := &Domain{
		cfg:        cfg,
		id:         id,
		addr:       packet.DomainControllerIP(id),
		eng:        eng,
		bh:         bh,
		city:       city,
		apAt:       make(map[packet.IPv4Addr]APAssignment, len(city)),
		owner:      make(map[packet.MACAddr]int),
		owned:      make(map[packet.MACAddr]*fedClient),
		handoffSeq: handoffIDBase(id),
	}
	var own []controller.APInfo
	seen := map[int]bool{}
	for _, a := range city {
		d.apAt[a.IP] = a
		if !seen[a.Domain] {
			seen[a.Domain] = true
			d.domains = append(d.domains, a.Domain)
		}
		if a.Domain == id {
			own = append(own, a.APInfo)
		}
	}
	slices.Sort(d.domains)
	if len(d.domains) > 1 {
		d.released = make(map[uint32]*release)
		d.byClient = make(map[packet.MACAddr]*adoption)
		d.adoptedIDs = make(map[uint32]bool)
		d.pendingDown = make(map[packet.MACAddr][]*packet.Packet)
	}
	ctlCfg := cfg.Controller
	ctlCfg.Addr = d.addr
	ctlCfg.SwitchIDBase = switchIDBase(id)
	d.ctl = controller.New(ctlCfg, eng, bh, own)
	d.ctl.OnSwitch = d.switched
	// The inner controller attached itself at d.addr; wrap it.
	bh.Attach(d.addr, d)
	return d
}

// switchIDBase spreads the inner controllers' switch/recovery ID sequences
// so domains sharing a backhaul and metrics registry never collide;
// handoffIDBase sets bit 23 so federation-driven switch IDs live in their
// own half of each domain's block.
func switchIDBase(id int) uint32  { return uint32(id) << 24 }
func handoffIDBase(id int) uint32 { return uint32(id)<<24 | 1<<23 }

// ID returns the domain id.
func (d *Domain) ID() int { return d.id }

// Controller exposes the inner controller (stats, evaluation hooks).
func (d *Domain) Controller() *controller.Controller { return d.ctl }

// addrOf returns the controller address of a domain.
func (d *Domain) addrOf(dom int) packet.IPv4Addr { return packet.DomainControllerIP(dom) }

// peerAt returns the peer domain whose controller sits at addr, if any.
func (d *Domain) peerAt(addr packet.IPv4Addr) (int, bool) {
	for _, dom := range d.domains {
		if dom != d.id && d.addrOf(dom) == addr {
			return dom, true
		}
	}
	return 0, false
}

// Admit is the one way a client enters this domain's directory: a commit
// whose TargetAP is one of ours is admitted here (admit) — a fresh client
// as an empty bundle, a migrating one with its carried state — and any
// other commit records the target AP's domain as the client's owner, so
// this domain relays the client's CSI and uplink there instead of acting
// on them.
func (d *Domain) Admit(m *packet.DomainHandoffCommit) error {
	a, ok := d.apAt[m.TargetAP]
	if !ok {
		return fmt.Errorf("federation: admission at unknown AP %v", m.TargetAP)
	}
	if a.Domain == d.id {
		d.admit(m)
	} else {
		d.owner[m.Client] = a.Domain
	}
	return nil
}

// Owns reports whether this domain currently owns the client.
func (d *Domain) Owns(mac packet.MACAddr) bool { return d.owner[mac] == d.id && d.owned[mac] != nil }

// switched hands a completed switch — the inner controller's, or a pull's —
// to OnSwitch.
func (d *Domain) switched(rec controller.SwitchRecord) {
	if d.OnSwitch != nil {
		d.OnSwitch(rec)
	}
}

// ServingAP returns the id of the AP serving the client, or -1: the inner
// controller's answer for a client this domain owns, and during an
// incoming handoff (accepted, commit not yet applied) the old domain's
// serving AP from the offer.
func (d *Domain) ServingAP(mac packet.MACAddr) int {
	if d.Owns(mac) {
		return d.ctl.ServingAP(mac)
	}
	if ad := d.byClient[mac]; ad != nil {
		if a, ok := d.apAt[ad.oldAP]; ok {
			return a.ID
		}
	}
	return -1
}

// SendDownlink accepts one downlink packet for a client. Owned clients go
// to the inner controller (which assigns the 12-bit index and fans out);
// packets for a client whose adoption is still in flight are buffered and
// drained, in order, the moment the commit lands — that buffering is what
// closes the re-association gap. Packets for clients owned elsewhere are
// forwarded to the owner over the backhaul.
func (d *Domain) SendDownlink(p *packet.Packet) error {
	if d.Owns(p.ClientMAC) {
		return d.ctl.SendDownlink(p)
	}
	own, known := d.owner[p.ClientMAC]
	if !known {
		return fmt.Errorf("federation: unknown client %v", p.ClientMAC)
	}
	if own == d.id || d.byClient[p.ClientMAC] != nil {
		// Ours-to-be: a commit naming us is in flight. Hold the packet.
		d.pendingDown[p.ClientMAC] = append(d.pendingDown[p.ClientMAC], p)
		d.Stats.DownBuffered++
		return nil
	}
	return d.bh.Send(d.addr, d.addrOf(own), &packet.DownData{APDst: d.addrOf(own), Pkt: p})
}

// HandleBackhaul implements backhaul.Node: federation traffic is handled
// here, everything else forwards to the inner controller.
func (d *Domain) HandleBackhaul(from packet.IPv4Addr, msg packet.Message) {
	if d.ctl.Down() {
		// A crashed controller hears nothing, its federation half included;
		// the inner controller counts the reports it lost.
		d.ctl.HandleBackhaul(from, msg)
		return
	}
	switch m := msg.(type) {
	case *packet.CSIReport:
		d.handleCSI(from, m)
	case *packet.UpData:
		d.handleUplink(from, m)
	case *packet.DownData:
		// Downlink forwarded controller→controller for a client that moved.
		_ = d.SendDownlink(m.Pkt)
	case *packet.DomainHandoffOffer:
		d.handleOffer(from, m)
	case *packet.DomainHandoffAccept:
		d.handleAccept(m)
	case *packet.DomainHandoffCommit:
		d.handleCommit(from, m)
	default:
		d.ctl.HandleBackhaul(from, msg)
	}
}

// handleCSI routes one CSI report: own client + foreign AP → handoff
// evidence; foreign client → relay to its owner; everything else — own AP,
// or a client or AP nobody knows — → the inner controller, which books or
// drops it exactly as a controller alone on the backhaul would.
func (d *Domain) handleCSI(from packet.IPv4Addr, m *packet.CSIReport) {
	a, knownAP := d.apAt[m.AP]
	own, known := d.owner[m.Client]
	if !known || !knownAP || own == d.id && a.Domain == d.id {
		d.ctl.HandleBackhaul(from, m)
		return
	}
	if own == d.id {
		if fc := d.owned[m.Client]; fc != nil {
			d.ingestForeign(fc, m)
		}
		return
	}
	if from == d.addrOf(own) {
		return // stale-directory loop guard: never bounce back to the sender
	}
	d.Stats.CSIRelays++
	_ = d.bh.Send(d.addr, d.addrOf(own), m)
}

// handleUplink forwards own-client (and unknown-client) uplink to the inner
// controller's dedup path, and relays foreign-owned uplink to the owner.
func (d *Domain) handleUplink(from packet.IPv4Addr, m *packet.UpData) {
	own, known := d.owner[m.Pkt.ClientMAC]
	if !known || own == d.id {
		d.ctl.HandleBackhaul(from, m)
		return
	}
	if from == d.addrOf(own) {
		return
	}
	d.Stats.UplinkRelays++
	_ = d.bh.Send(d.addr, d.addrOf(own), m)
}
