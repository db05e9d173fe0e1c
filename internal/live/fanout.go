package live

import (
	"fmt"
	"net"
	"time"

	"wgtt/internal/backhaul"
	"wgtt/internal/backhaul/udp"
	"wgtt/internal/packet"
	"wgtt/internal/runtime"
)

// This file is the live fan-out load generator (DESIGN.md §14): it drives
// the §3.1.1 downlink replication path over real UDP sockets at maximum
// rate, on the deployed topology — one socket per AP.

// FanoutResult summarizes one fan-out load run.
type FanoutResult struct {
	Copies     uint64  // per-AP copies the switch wrote, one datagram each
	PktsPerSec float64 // sustained copies per second
}

// MeasureFanout pushes packets downlink messages through a live node's
// switch and its loopback UDP port with SendMany, each fanned out to numAPs
// virtual APs, each behind a sink socket of its own, and reports the
// sustained copy rate. The sinks are never read: once a receive buffer
// fills the kernel drops the overflow silently, which is exactly UDP's
// contract and keeps the measurement on the send path.
func MeasureFanout(numAPs, packets int) (FanoutResult, error) {
	if numAPs < 1 || packets < 1 {
		return FanoutResult{}, fmt.Errorf("live: fan-out needs at least 1 AP and 1 packet")
	}
	loopback := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	conn, err := net.ListenUDP("udp", loopback)
	if err != nil {
		return FanoutResult{}, err
	}
	defer conn.Close()

	table := make(map[packet.IPv4Addr]string, numAPs)
	targets := make([]packet.IPv4Addr, numAPs)
	for i := range targets {
		sink, err := net.ListenUDP("udp", loopback)
		if err != nil {
			return FanoutResult{}, err
		}
		defer sink.Close()
		targets[i] = packet.APIP(i)
		table[targets[i]] = sink.LocalAddr().String()
	}
	w := runtime.NewWall()
	sw := backhaul.NewSwitch(w.Eng, 0)
	if _, err := udp.New(w, sw, conn, table); err != nil {
		return FanoutResult{}, err
	}

	msg := &packet.DownData{Pkt: &packet.Packet{
		ClientMAC: Client, DstIP: ClientIP, Bytes: 1200,
	}}
	start := time.Now()
	for i := 0; i < packets; i++ {
		msg.Pkt.Index = packet.NextIndex(msg.Pkt.Index)
		sw.SendMany(packet.ControllerIP, targets, msg)
	}
	elapsed := time.Since(start)
	var res FanoutResult
	res.Copies, _, _ = sw.Stats()
	if s := elapsed.Seconds(); s > 0 {
		res.PktsPerSec = float64(res.Copies) / s
	}
	return res, nil
}
