// Package client implements the mobile station of §3.2 and §4.1: the
// 802.11 client MAC glue that receives (and de-duplicates, §3.2.2)
// downlink packets, queues and aggregates uplink traffic toward the
// current BSSID, emits the null-frame CSI keepalives that feed the §3.1.1
// selection window under downlink-only load, and surfaces beacons and
// management traffic to whatever roaming logic sits above it (none for
// WGTT — the network roams for the client; the Enhanced 802.11r baseline
// of §5 plugs its client-driven roamer into the hooks).
package client

import (
	"wgtt/internal/mac"
	"wgtt/internal/metrics"
	"wgtt/internal/packet"
	"wgtt/internal/phy"
	"wgtt/internal/sim"
)

// Config parameterizes a client.
type Config struct {
	ID  int
	MAC packet.MACAddr
	IP  packet.IPv4Addr
	// Dest is the initial uplink destination (the shared BSSID for WGTT;
	// the first AP's own address for the baseline).
	Dest packet.MACAddr
}

// DefaultConfig returns a standard client.
func DefaultConfig(id int, dest packet.MACAddr) Config {
	return Config{
		ID:   id,
		MAC:  packet.ClientMAC(id),
		IP:   packet.ClientIP(id),
		Dest: dest,
	}
}

// dedupTTL is how recently a 12-bit downlink index must have been seen to
// count as a duplicate. Time-based suppression matters: the index space
// wraps every 4096 packets, so an occupancy-based window would
// false-positive on fresh packets whenever handover replays keep old
// indices warm.
const dedupTTL = 200 * sim.Millisecond

// Stats counts client-side events.
type Stats struct {
	DownlinkMPDUs   uint64 // unique downlink packets delivered up the stack
	DownlinkDupes   uint64 // duplicates suppressed (index already seen)
	UplinkQueued    uint64
	UplinkDropped   uint64 // retry budget exhausted
	UplinkDelivered uint64
	Beacons         uint64
	KeepalivesSent  uint64 // null-data CSI probes queued while idle (§3.1.1)
}

// Client is one mobile station.
type Client struct {
	cfg Config
	eng *sim.Engine
	st  *mac.Station

	dest packet.MACAddr

	uplinkQ []*packet.Packet
	retryQ  []*mac.MPDU

	seen      map[uint16]sim.Time
	seenSweep sim.Time

	// kaGen invalidates in-flight keepalive timers: each StartKeepalive
	// bumps it and StopKeepalive bumps it again, so a stale tick closure
	// notices and dies instead of rescheduling forever. Metro cells need
	// this — a client's presence in a cell is windowed, and its keepalives
	// must stop when it migrates out.
	kaGen uint64

	// OnDownlink receives each unique downlink packet (transport hookup).
	OnDownlink func(p *packet.Packet, at sim.Time)
	// OnBeacon observes beacons — the only frames the medium measures RSSI
	// on — for the baseline roamer.
	OnBeacon func(from packet.MACAddr, rssiDBm float64, at sim.Time)

	Stats Stats
}

// UseMetrics names the client's counters — Stats fields — in r under the
// given component name (DESIGN.md §10). A nil registry is a no-op.
func (c *Client) UseMetrics(r *metrics.Registry, component string) {
	r.CounterAt(component, "keepalives_sent", &c.Stats.KeepalivesSent)
	r.CounterAt(component, "downlink_dupes", &c.Stats.DownlinkDupes)
}

// New creates a client bound to an existing MAC station; the client
// installs itself as the station's Sink and Source.
func New(cfg Config, eng *sim.Engine, st *mac.Station) *Client {
	c := &Client{cfg: cfg, eng: eng, st: st, dest: cfg.Dest, seen: make(map[uint16]sim.Time)}
	st.SetSink(c)
	st.SetSource(c)
	return c
}

// Config returns the client's configuration.
func (c *Client) Config() Config { return c.cfg }

// Station returns the underlying MAC station.
func (c *Client) Station() *mac.Station { return c.st }

// SetDest retargets uplink traffic (baseline roam). Pending retries keep
// their MPDUs but will be rebuilt toward the new destination.
func (c *Client) SetDest(d packet.MACAddr) { c.dest = d }

// StartKeepalive emits an 802.11 null-data frame every interval whenever
// the uplink is otherwise idle. Real stations do this for power management
// and connectivity checks; here, as on the testbed, these frames are what
// keeps per-AP CSI flowing at millisecond granularity when the workload is
// downlink-only (§3.1.1's selection window needs fresh uplink samples).
func (c *Client) StartKeepalive(interval sim.Time) {
	if interval <= 0 {
		return
	}
	c.kaGen++
	gen := c.kaGen
	var tick func()
	tick = func() {
		if c.kaGen != gen {
			return
		}
		if !c.hasWork() {
			c.Stats.KeepalivesSent++
			c.uplinkQ = append(c.uplinkQ, &packet.Packet{
				ClientMAC: c.cfg.MAC,
				SrcIP:     c.cfg.IP,
				Bytes:     36,
				Uplink:    true,
				Kind:      packet.KindNull,
				Created:   c.eng.Now(),
			})
			c.st.Kick()
		}
		c.eng.After(interval, tick)
	}
	c.eng.After(interval, tick)
}

// StopKeepalive cancels the keepalive stream started by StartKeepalive.
// The pending timer still fires once but finds its generation stale and
// does nothing. Safe to call when no keepalive is running.
func (c *Client) StopKeepalive() { c.kaGen++ }

// SendUplink queues one packet for uplink transmission.
func (c *Client) SendUplink(p *packet.Packet) {
	p.Uplink = true
	p.ClientMAC = c.cfg.MAC
	if p.SrcIP.IsZero() {
		p.SrcIP = c.cfg.IP
	}
	c.uplinkQ = append(c.uplinkQ, p)
	c.Stats.UplinkQueued++
	c.st.Kick()
}

// BuildFrame implements mac.Source (uplink aggregates).
func (c *Client) BuildFrame() *mac.Frame {
	mcs := c.st.PickMCS(c.dest)
	budget := min(mac.MaxAggregateBytes, phy.TXOPByteBudget(mcs))
	var mpdus []*mac.MPDU
	bytes := 0
	n := 0
	for n < len(c.retryQ) && n < mac.MaxAggregate && bytes < budget {
		mpdus = append(mpdus, c.retryQ[n])
		bytes += c.retryQ[n].Bytes
		n++
	}
	c.retryQ = c.retryQ[n:]
	for len(mpdus) < mac.MaxAggregate && bytes < budget && len(c.uplinkQ) > 0 {
		p := c.uplinkQ[0]
		c.uplinkQ = c.uplinkQ[1:]
		mpdus = append(mpdus, &mac.MPDU{Seq: c.st.NextSeq(c.dest), Pkt: p, Bytes: p.Bytes})
		bytes += p.Bytes
	}
	if len(mpdus) == 0 {
		return nil
	}
	return &mac.Frame{
		Kind:  mac.KindData,
		From:  c.cfg.MAC,
		To:    c.dest,
		MCS:   mcs,
		MPDUs: mpdus,
	}
}

// OnTxDone implements mac.Source.
func (c *Client) OnTxDone(res *mac.TxResult) {
	if res == nil || res.Frame == nil {
		if c.hasWork() {
			c.st.Kick()
		}
		return
	}
	acked := 0
	for _, mp := range res.Frame.MPDUs {
		if res.BAReceived && mac.BitmapAcks(res.SSN, res.Bitmap, mp.Seq) {
			acked++
			c.Stats.UplinkDelivered++
			continue
		}
		mp.Retries++
		if mp.Retries > mac.RetryLimit {
			c.Stats.UplinkDropped++
			continue
		}
		c.retryQ = append(c.retryQ, mp)
	}
	c.st.ReportTx(res.Frame.To, res.Frame.MCS, len(res.Frame.MPDUs), acked)
	if c.hasWork() {
		c.st.Kick()
	}
}

func (c *Client) hasWork() bool { return len(c.uplinkQ) > 0 || len(c.retryQ) > 0 }

// OnFrame implements mac.Sink: downlink reception with duplicate
// suppression keyed on the controller-assigned 12-bit index.
func (c *Client) OnFrame(ev *mac.RxEvent) {
	switch ev.Kind {
	case mac.KindBeacon:
		c.Stats.Beacons++
		if c.OnBeacon != nil {
			c.OnBeacon(ev.From, ev.RSSIdBm, ev.At)
		}
		return
	case mac.KindMgmt:
		return
	}
	if ev.Overheard {
		return
	}
	for _, mp := range ev.Decoded {
		if mp.Pkt == nil {
			continue
		}
		if c.isDup(mp.Pkt.Index, ev.At) {
			c.Stats.DownlinkDupes++
			continue
		}
		c.Stats.DownlinkMPDUs++
		if c.OnDownlink != nil {
			c.OnDownlink(mp.Pkt, ev.At)
		}
	}
}

// Overhears implements mac.Sink: a client uses no monitor-mode capture —
// neither another station's frame nor a Block ACK addressed to someone else.
func (c *Client) Overhears(packet.MACAddr) bool { return false }

// isDup records and tests the downlink index against the TTL window.
func (c *Client) isDup(idx uint16, at sim.Time) bool {
	last, ok := c.seen[idx]
	c.seen[idx] = at
	if ok && at-last < dedupTTL {
		return true
	}
	// Amortized sweep keeps the map from accumulating stale entries.
	if at-c.seenSweep > 10*dedupTTL {
		c.seenSweep = at
		for k, v := range c.seen {
			if at-v >= dedupTTL {
				delete(c.seen, k)
			}
		}
	}
	return false
}
