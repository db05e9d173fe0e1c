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
// the §3.1.1 downlink replication path over a real UDP socket at maximum
// rate, which is how the packets-per-second benchmarks compare the
// encode-once batched SendMany path against a Send per copy.

// FanoutResult summarizes one fan-out load run.
type FanoutResult struct {
	APs        int           // fan-out width
	Packets    int           // downlink messages pushed
	Copies     uint64        // per-AP copies those messages produced
	Elapsed    time.Duration // wall time spent sending
	PktsPerSec float64       // sustained copies per second
	Stats      udp.Stats     // the sending port's counters
}

// MeasureFanout pushes packets downlink messages through a live node's
// switch and its loopback UDP port, each fanned out to numAPs virtual APs
// hosted behind one sink endpoint, and reports the sustained copy rate.
// batched selects SendMany — encode once, one datagram per endpoint listing
// its targets; false sends each copy with its own Send, the benchmark's
// baseline. The sink is never read: once its receive buffer fills the
// kernel drops the overflow silently, which is exactly UDP's contract and
// keeps the measurement on the send path.
func MeasureFanout(numAPs, packets int, batched bool) (FanoutResult, error) {
	if numAPs < 1 || packets < 1 {
		return FanoutResult{}, fmt.Errorf("live: fan-out needs at least 1 AP and 1 packet")
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return FanoutResult{}, err
	}
	defer conn.Close()
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return FanoutResult{}, err
	}
	defer sink.Close()

	table := make(map[packet.IPv4Addr]string, numAPs)
	targets := make([]packet.IPv4Addr, numAPs)
	for i := 0; i < numAPs; i++ {
		table[packet.APIP(i)] = sink.LocalAddr().String()
		targets[i] = packet.APIP(i)
	}
	w := runtime.NewWall()
	sw := backhaul.NewSwitch(w.Eng, 0)
	port, err := udp.New(w, sw, conn, table)
	if err != nil {
		return FanoutResult{}, err
	}

	msg := &packet.DownData{Pkt: &packet.Packet{
		ClientMAC: Client, DstIP: ClientIP, Bytes: 1200,
	}}
	start := time.Now()
	for i := 0; i < packets; i++ {
		msg.Pkt.Index = packet.NextIndex(msg.Pkt.Index)
		if batched {
			sw.SendMany(packet.ControllerIP, targets, msg)
		} else {
			for _, to := range targets {
				_ = sw.Send(packet.ControllerIP, to, msg)
			}
		}
	}
	elapsed := time.Since(start)
	res := FanoutResult{
		APs:     numAPs,
		Packets: packets,
		Copies:  uint64(packets) * uint64(numAPs),
		Elapsed: elapsed,
		Stats:   port.Stats(),
	}
	if s := elapsed.Seconds(); s > 0 {
		res.PktsPerSec = float64(res.Copies) / s
	}
	return res, nil
}
