package core

import (
	"wgtt/internal/packet"
	"wgtt/internal/sim"
	"wgtt/internal/transport"
)

// ServerIP is the content server's address (the paper caches content on a
// local server to factor out Internet latency, §5.4).
var ServerIP = packet.IPv4Addr{8, 8, 8, 8}

// DownUDP is an attached downlink UDP flow.
type DownUDP struct {
	Sender   *transport.UDPSender
	Receiver *transport.UDPReceiver
}

// AddDownlinkUDP attaches a server→client CBR flow; call Sender.Start().
func (n *Network) AddDownlinkUDP(clientID int, rateMbps float64, bytes int) *DownUDP {
	flow := n.allocFlow()
	cl := n.Clients[clientID]
	tx := transport.NewUDPSender(n.Eng, transport.UDPConfig{
		FlowID:    flow,
		RateMbps:  rateMbps,
		Bytes:     bytes,
		SrcIP:     ServerIP,
		DstIP:     cl.Config().IP,
		ClientMAC: cl.Config().MAC,
	}, func(p *packet.Packet) { _ = n.SendDownlink(clientID, p) })
	rx := &transport.UDPReceiver{FlowID: flow}
	n.OnClientDownlink(clientID, rx.OnPacket)
	return &DownUDP{Sender: tx, Receiver: rx}
}

// UpUDP is an attached uplink UDP flow: the same sender/receiver pair.
type UpUDP = DownUDP

// AddUplinkUDP attaches a client→server CBR flow; call Sender.Start().
func (n *Network) AddUplinkUDP(clientID int, rateMbps float64, bytes int) *UpUDP {
	flow := n.allocFlow()
	cl := n.Clients[clientID]
	tx := transport.NewUDPSender(n.Eng, transport.UDPConfig{
		FlowID:    flow,
		RateMbps:  rateMbps,
		Bytes:     bytes,
		SrcIP:     cl.Config().IP,
		DstIP:     ServerIP,
		ClientMAC: cl.Config().MAC,
		Uplink:    true,
	}, cl.SendUplink)
	rx := &transport.UDPReceiver{FlowID: flow}
	n.onServerUplink(func(p *packet.Packet, at sim.Time) {
		if p.FlowID == flow {
			rx.OnPacket(p, at)
		}
	})
	return &UpUDP{Sender: tx, Receiver: rx}
}

// DownTCP is an attached downlink TCP flow (server sends, client receives,
// ACKs ride the uplink).
type DownTCP struct {
	Sender   *transport.TCPSender
	Receiver *transport.TCPReceiver
}

// AddDownlinkTCP attaches a server→client TCP flow of totalSegments
// (0 = unbounded bulk); call Sender.Start().
func (n *Network) AddDownlinkTCP(clientID int, totalSegments uint32, onComplete func(at sim.Time)) *DownTCP {
	flow := n.allocFlow()
	cl := n.Clients[clientID]
	tx := transport.NewTCPSender(n.Eng, transport.TCPConfig{
		FlowID:        flow,
		SrcIP:         ServerIP,
		DstIP:         cl.Config().IP,
		ClientMAC:     cl.Config().MAC,
		TotalSegments: totalSegments,
		OnComplete:    onComplete,
	}, func(p *packet.Packet) { _ = n.SendDownlink(clientID, p) })
	rx := &transport.TCPReceiver{
		FlowID:  flow,
		SendAck: cl.SendUplink,
		AckTemplate: packet.Packet{
			SrcIP:     cl.Config().IP,
			DstIP:     ServerIP,
			ClientMAC: cl.Config().MAC,
			Uplink:    true,
		},
	}
	n.OnClientDownlink(clientID, rx.OnPacket)
	n.onServerUplink(func(p *packet.Packet, at sim.Time) {
		if p.FlowID == flow && p.Kind == packet.KindAck {
			tx.OnAck(p.Seq, at)
		}
	})
	return &DownTCP{Sender: tx, Receiver: rx}
}

// onServerUplink registers a tap on de-duplicated uplink packets.
func (n *Network) onServerUplink(fn func(p *packet.Packet, at sim.Time)) {
	n.upRx = append(n.upRx, fn)
}

func (n *Network) allocFlow() uint32 {
	n.nextFlow++
	return n.nextFlow
}
