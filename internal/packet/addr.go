// Package packet defines the data unit that flows through the WGTT system
// and the wire formats of everything the paper sends over the Ethernet
// backhaul: tunneled downlink/uplink data (§3.1.3, §3.2.2), the
// stop/start/ack switching protocol (§3.1.2), CSI reports (§3.1.1),
// forwarded Block ACKs (§3.2.1), and the inter-controller handoff exchange
// (DESIGN.md §13). It is the only code that knows the format: the type
// table, the framing rule (Decode accepts exactly what Encode produces) and
// the 0.25 dB fixed point (DB).
package packet

import (
	"fmt"
)

// MaxAPs and MaxClients bound the address plan. APIP's last octet runs
// from 10 to 255 over AP ids [0, MaxAPs); one id further it wraps onto
// 10.0.0.0, then onto ControllerIP and the first APs. ClientIP gives any
// MaxClients consecutive client ids distinct addresses. Past either bound
// two nodes share an address, and the backhaul keeps only the last one
// attached there.
const (
	MaxAPs     = 246
	MaxClients = 256
)

// CheckAddressPlan reports an error naming the limit when a deployment of
// aps APs (ids 0..aps-1) and clients clients would alias addresses.
func CheckAddressPlan(aps, clients int) error {
	if aps > MaxAPs {
		return fmt.Errorf("%d APs exceed the address plan's %d", aps, MaxAPs)
	}
	if clients > MaxClients {
		return fmt.Errorf("%d clients exceed the address plan's %d", clients, MaxClients)
	}
	return nil
}

// MACAddr is a 48-bit layer-2 address.
type MACAddr [6]byte

// String renders the address in colon-hex form.
func (m MACAddr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IPv4Addr is a 32-bit layer-3 address.
type IPv4Addr [4]byte

// String renders the address in dotted-quad form.
func (a IPv4Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// IsZero reports whether the address is all-zero (unset).
func (a IPv4Addr) IsZero() bool { return a == IPv4Addr{} }

// ClientMAC derives a deterministic client MAC from a small integer id,
// using a locally-administered OUI.
func ClientMAC(id int) MACAddr {
	return MACAddr{0x02, 0xc1, 0x1e, byte(id >> 16), byte(id >> 8), byte(id)}
}

// APMAC derives a deterministic AP MAC from a small integer id.
func APMAC(id int) MACAddr {
	return MACAddr{0x02, 0xa9, 0x00, byte(id >> 16), byte(id >> 8), byte(id)}
}

// APIP derives the backhaul IP of AP id: 10.0.0.(id+10).
func APIP(id int) IPv4Addr { return IPv4Addr{10, 0, 0, byte(id + 10)} }

// APName is AP id's display name — its process, radio endpoint and
// metrics component: ap<id+1>.
func APName(id int) string { return fmt.Sprintf("ap%d", id+1) }

// ControllerIP is the backhaul address of the WGTT controller.
var ControllerIP = IPv4Addr{10, 0, 0, 1}

// DomainControllerIP derives the backhaul address of the controller owning
// federation domain d: 10.0.d.1. Domain 0 maps to ControllerIP, so a
// single-domain deployment is addressed identically to the unfederated
// system; APs live in 10.0.0.10+, so domain controllers d ≥ 1 never collide
// with them.
func DomainControllerIP(d int) IPv4Addr {
	if d == 0 {
		return ControllerIP
	}
	return IPv4Addr{10, 0, byte(d), 1}
}

// ClientIP derives the WLAN IP of client id: 192.168.1.(id+100).
func ClientIP(id int) IPv4Addr { return IPv4Addr{192, 168, 1, byte(id + 100)} }

// ClientName is client id's metrics component name: client<id>.
func ClientName(id int) string { return fmt.Sprintf("client%d", id) }
