// Package baseline implements the paper's comparison scheme, "Enhanced
// 802.11r" (§5.1): a performance-tuned 802.11r/k fast-roaming stack in
// which every AP beacons at 100 ms, the client roams when its serving AP's
// RSSI falls below a threshold (to the AP with the highest RSSI, with a one
// second time hysteresis), and association/authentication state is
// pre-shared among APs so the re-association exchange is a single
// management round trip.
//
// Unlike WGTT, the wired side forwards each downlink packet to exactly one
// AP — the one the client is associated with — so a late handover strands
// the old AP's backlog behind a dead link, the §3.1.2 buffering pathology.
package baseline

import (
	"errors"
	"math"

	"wgtt/internal/ap"
	"wgtt/internal/backhaul"
	"wgtt/internal/client"
	"wgtt/internal/controller"
	"wgtt/internal/mac"
	"wgtt/internal/packet"
	"wgtt/internal/sim"
)

// The §5.1 wired-side operating point.
const (
	// beaconInterval is the per-AP beacon period.
	beaconInterval = 100 * sim.Millisecond
	// oldAPLinger is how long the previous AP keeps transmitting after the
	// client re-associates elsewhere — the association-state propagation
	// delay of a vendor controller.
	oldAPLinger = 100 * sim.Millisecond
)

// Network is the baseline distribution system: it routes each client's
// downlink through its single associated AP and relays uplink packets the
// (single) AP tunnels up.
type Network struct {
	eng *sim.Engine
	bh  *backhaul.Switch
	aps []*ap.AP

	current map[packet.MACAddr]int
	ips     map[packet.MACAddr]packet.IPv4Addr

	// DeliverUplink receives uplink packets (no de-dup needed: one AP).
	DeliverUplink func(p *packet.Packet, at sim.Time)

	// Handovers records completed association moves on the ledger WGTT's
	// switches use: At, Client, From and To. Duration, Attempts and Forced
	// describe the §3.1.2 handshake a roam does not run, and stay zero.
	Handovers []controller.SwitchRecord
}

// NewNetwork creates the baseline wired side and attaches it at the
// controller address.
func NewNetwork(eng *sim.Engine, bh *backhaul.Switch, aps []*ap.AP) *Network {
	n := &Network{
		eng:     eng,
		bh:      bh,
		aps:     aps,
		current: make(map[packet.MACAddr]int),
		ips:     make(map[packet.MACAddr]packet.IPv4Addr),
	}
	bh.Attach(packet.ControllerIP, n)
	return n
}

// HandleBackhaul implements backhaul.Node.
func (n *Network) HandleBackhaul(_ packet.IPv4Addr, msg packet.Message) {
	if up, ok := msg.(*packet.UpData); ok && n.DeliverUplink != nil {
		n.DeliverUplink(up.Pkt, n.eng.Now())
	}
}

// Associate installs a client at its initial AP.
func (n *Network) Associate(clientMAC packet.MACAddr, ip packet.IPv4Addr, apID int) {
	n.current[clientMAC] = apID
	n.ips[clientMAC] = ip
	for i, a := range n.aps {
		a.Associate(clientMAC, ip, i == apID)
	}
}

// CurrentAP returns the AP a client is associated with (-1 if unknown).
func (n *Network) CurrentAP(clientMAC packet.MACAddr) int {
	id, ok := n.current[clientMAC]
	if !ok {
		return -1
	}
	return id
}

// ClientAssociated performs the wired-side half of a re-association: route
// downlink to the new AP immediately, let the old AP linger briefly (state
// propagation), then quench it.
func (n *Network) ClientAssociated(clientMAC packet.MACAddr, apID int) {
	old, ok := n.current[clientMAC]
	if ok && old == apID {
		return
	}
	n.current[clientMAC] = apID
	ip := n.ips[clientMAC]
	n.aps[apID].Associate(clientMAC, ip, true)
	n.aps[apID].Station().Kick()
	if ok {
		oldAP := n.aps[old]
		n.eng.After(oldAPLinger, func() {
			if n.current[clientMAC] != old {
				oldAP.Associate(clientMAC, ip, false)
			}
		})
	}
	n.Handovers = append(n.Handovers, controller.SwitchRecord{At: n.eng.Now(), Client: clientMAC, From: old, To: apID})
}

// SendDownlink forwards one downlink packet to the client's current AP. The
// 12-bit index keeps the client-side duplicate filter uniform across modes.
func (n *Network) SendDownlink(p *packet.Packet, idx *uint16) error {
	apID, ok := n.current[p.ClientMAC]
	if !ok {
		return errUnknownClient
	}
	p.Index = *idx
	*idx = packet.NextIndex(*idx)
	a := n.aps[apID]
	return n.bh.Send(packet.ControllerIP, a.Config().IP, &packet.DownData{APDst: a.Config().IP, Pkt: p})
}

var errUnknownClient = errors.New("baseline: unknown client")

// StartBeacons schedules staggered 100 ms beacons on every AP, forever.
func (n *Network) StartBeacons() {
	for i, a := range n.aps {
		a := a
		offset := sim.Time(i) * beaconInterval / sim.Time(len(n.aps))
		var beacon func()
		beacon = func() {
			st := a.Station()
			from := a.Config().MAC
			st.SendOneShot(func() *mac.Frame {
				return &mac.Frame{
					Kind:  mac.KindBeacon,
					From:  from,
					To:    mac.BroadcastAddr,
					MPDUs: []*mac.MPDU{{Bytes: 100}},
				}
			}, nil)
			n.eng.After(beaconInterval, beacon)
		}
		n.eng.After(offset, beacon)
	}
}

// The §5.1 client policy.
const (
	// hysteresis is the §5.1 one-second time hysteresis between roams.
	hysteresis = sim.Second
	// roamThresholdDBm: roam when the serving AP's smoothed RSSI is below
	// this. It sits near the bottom of the usable range: like the
	// commercial clients the paper measures (§2), the baseline hangs on to
	// its AP until the link is nearly dead before roaming.
	roamThresholdDBm float64 = -82
	// rssiEWMA is the RSSI smoothing weight on the previous estimate.
	rssiEWMA float64 = 0.92
	// reassocProcessing models authentication/association completion after
	// the management exchange (fast thanks to pre-shared 802.11r state).
	reassocProcessing = 50 * sim.Millisecond
	// reassocAttempts bounds management-frame tries per roam; retryGap
	// spaces them.
	reassocAttempts = 5
	retryGap        = 20 * sim.Millisecond
	// staleAfter treats an AP unheard for this long as gone (its RSSI no
	// longer counts, and a silent serving AP counts as below threshold).
	staleAfter = sim.Second
)

// Roamer is the baseline client-side handover policy.
type Roamer struct {
	eng *sim.Engine
	cl  *client.Client
	net *Network

	rssi     []float64
	heard    []bool
	lastSeen []sim.Time
	current  int
	lastRoam sim.Time
	roaming  bool

	// RoamFailures counts roams abandoned after reassocAttempts tries; a
	// completed roam is one Network.Handovers record.
	RoamFailures uint64
}

// NewRoamer attaches roaming logic to a client, over the Network's APs. The
// client must already be associated to startAP (both locally and in the
// Network).
func NewRoamer(eng *sim.Engine, cl *client.Client, net *Network, startAP int) *Roamer {
	n := len(net.aps)
	r := &Roamer{
		eng:      eng,
		cl:       cl,
		net:      net,
		rssi:     make([]float64, n),
		heard:    make([]bool, n),
		lastSeen: make([]sim.Time, n),
		current:  startAP,
	}
	cl.OnBeacon = r.onBeacon
	return r
}

func (r *Roamer) apIndex(mac packet.MACAddr) int {
	for i, a := range r.net.aps {
		if a.Config().MAC == mac {
			return i
		}
	}
	return -1
}

func (r *Roamer) onBeacon(from packet.MACAddr, rssiDBm float64, at sim.Time) {
	i := r.apIndex(from)
	if i < 0 {
		return
	}
	if !r.heard[i] {
		r.rssi[i] = rssiDBm
		r.heard[i] = true
	} else {
		r.rssi[i] = rssiEWMA*r.rssi[i] + (1-rssiEWMA)*rssiDBm
	}
	r.lastSeen[i] = at
	r.evaluate(at)
}

// evaluate applies the §5.1 policy: switch to the highest-RSSI AP once the
// serving AP drops below the threshold, at most once per hysteresis period.
func (r *Roamer) evaluate(now sim.Time) {
	if r.roaming || now-r.lastRoam < hysteresis {
		return
	}
	servingRSSI := math.Inf(-1)
	if r.heard[r.current] && now-r.lastSeen[r.current] <= staleAfter {
		servingRSSI = r.rssi[r.current]
	}
	if servingRSSI >= roamThresholdDBm {
		return
	}
	best, bestRSSI := -1, math.Inf(-1)
	for i := range r.rssi {
		if !r.heard[i] || now-r.lastSeen[i] > staleAfter {
			continue
		}
		if r.rssi[i] > bestRSSI {
			best, bestRSSI = i, r.rssi[i]
		}
	}
	if best < 0 || best == r.current || bestRSSI <= servingRSSI {
		return
	}
	r.reassociate(best, 0)
}

// reassociate runs the management exchange toward the target AP, retrying
// a bounded number of times (the client in the paper's §2 experiment is
// seen retransmitting its re-association frames).
func (r *Roamer) reassociate(target, attempt int) {
	r.roaming = true
	st := r.cl.Station()
	to := r.net.aps[target].Config().MAC
	from := r.cl.Config().MAC
	st.SendOneShot(func() *mac.Frame {
		return &mac.Frame{
			Kind:  mac.KindMgmt,
			From:  from,
			To:    to,
			MCS:   0,
			MPDUs: []*mac.MPDU{{Seq: st.NextSeq(to), Bytes: 120}},
		}
	}, func(res *mac.TxResult) {
		if res != nil && res.BAReceived {
			r.eng.After(reassocProcessing, func() { r.finishRoam(target) })
			return
		}
		if attempt+1 < reassocAttempts {
			r.eng.After(retryGap, func() { r.reassociate(target, attempt+1) })
			return
		}
		r.RoamFailures++
		r.roaming = false
		r.lastRoam = r.eng.Now() // back off a full hysteresis before retrying
	})
}

func (r *Roamer) finishRoam(target int) {
	r.current = target
	r.cl.SetDest(r.net.aps[target].Config().MAC)
	r.net.ClientAssociated(r.cl.Config().MAC, target)
	r.lastRoam = r.eng.Now()
	r.roaming = false
}
