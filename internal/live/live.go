// Package live assembles the transport-agnostic protocol cores into
// runnable wall-clock nodes: one controller process per federation domain
// (one, or two for an inter-domain handoff) and N AP processes over a real
// UDP backhaul (DESIGN.md §12). It exists to prove, end to end, that
// the §3.1.1 selection rule and the §3.1.2 stop→start→ack switching
// protocol — the exact code paths the simulator exercises in virtual time —
// execute over real sockets with every backhaul message passing through its
// wire encoding.
//
// Live mode has no simulated radio: each AP feeds the controller a scripted
// CSI trace (a linear ESNR ramp), standing in for the per-frame CSI a real
// monitor-mode NIC would deliver (§3.1.1). Two crossing ramps make the
// controller's windowed-median argmax flip from AP 1 to AP 2, triggering a
// complete stop→start→ack handover between the processes.
package live

import (
	"fmt"
	"math/rand/v2"
	"net"

	"wgtt/internal/ap"
	"wgtt/internal/backhaul"
	"wgtt/internal/backhaul/udp"
	"wgtt/internal/controller"
	"wgtt/internal/federation"
	"wgtt/internal/packet"
	"wgtt/internal/runtime"
	"wgtt/internal/selector"
	"wgtt/internal/sim"
)

// Client is the mobile client the live scenario hands over.
var Client = packet.ClientMAC(1)

// ClientIP is its WLAN address.
var ClientIP = packet.ClientIP(1)

// CSIScript is a linear ESNR ramp: the report stream AP i feeds the
// controller. Reports carry a flat per-subcarrier SNR of
// StartdB + SlopedBPerSec·t, so the controller-side ESNR tracks the ramp.
type CSIScript struct {
	StartdB       float64
	SlopedBPerSec float64
	Period        sim.Time
}

// Script returns AP id's report stream. APs 0 and 1 carry the crossing
// ramps: AP 0 starts strong and fades, AP 1 starts weak and strengthens,
// with the crossover near t ≈ 240 ms — comfortably past the controller's
// 10 ms window and 40 ms hysteresis, so exactly one switch fires. Every
// further AP replays a flat ramp below both, heard but never chosen.
func Script(id int) CSIScript {
	s := CSIScript{StartdB: -10, Period: 2 * sim.Millisecond}
	switch id {
	case 0:
		s.StartdB, s.SlopedBPerSec = 14, -20
	case 1:
		s.StartdB, s.SlopedBPerSec = 2, 30
	}
	return s
}

// Table maps a live topology's virtual addresses onto UDP endpoints: entry
// d < controllers is domain d's controller (packet.DomainControllerIP(0) is
// packet.ControllerIP, so one controller is the single-domain topology) and
// entry controllers+i is AP i.
func Table(endpoints []string, controllers int) map[packet.IPv4Addr]string {
	t := make(map[packet.IPv4Addr]string, len(endpoints))
	for i, ep := range endpoints {
		if i < controllers {
			t[packet.DomainControllerIP(i)] = ep
		} else {
			t[packet.APIP(i-controllers)] = ep
		}
	}
	return t
}

// runNode is the body every live node shares: a wall-paced engine, the
// simulator's backhaul.Switch at zero latency with a UDP port over conn,
// the protocol core wire builds on them, and the run loop until the core
// stops the pacer or timeout elapses. conn is the node's pre-bound socket;
// table maps every OTHER node's virtual address to its endpoint. The loop
// runs wire's callbacks on this goroutine, so what they record is the
// caller's to read once runNode returns.
func runNode(conn *net.UDPConn, table map[packet.IPv4Addr]string, timeout sim.Time, wire func(w *runtime.Wall, sw *backhaul.Switch) error) error {
	w := runtime.NewWall()
	sw := backhaul.NewSwitch(w.Eng, 0)
	port, err := udp.New(w, sw, conn, table)
	if err != nil {
		return err
	}
	if err := wire(w, sw); err != nil {
		return err
	}
	w.Eng.After(timeout, w.Stop)
	port.Start()
	w.Run()
	_ = port.Close()
	return nil
}

// RunController drives domain's controller node of city until the first
// switch lands on its domain's ledger, or timeout elapses, and returns that
// switch. The client starts on AP 0, owned by AP 0's domain; every other
// domain relays its CSI there. With one domain the
// first switch is the §3.1.2 stop→start→ack the crossing ramps trigger;
// with AP 1 in another domain it is that domain's cross-domain pull, once
// the ramps push AP 1 past the offer margin and AP 0's domain has exported
// the client's state bundle over the wire (the exporting domain runs to
// timeout — the orchestrator kills it once the adopter reports). pol
// selects the AP-selection policy (DESIGN.md §15); "" runs the default
// §3.1.1 windowed-median rule.
func RunController(domain int, conn *net.UDPConn, table map[packet.IPv4Addr]string, city []federation.APAssignment, timeout sim.Time, pol selector.Policy) (controller.SwitchRecord, error) {
	var (
		rec controller.SwitchRecord
		got bool
	)
	err := runNode(conn, table, timeout, func(w *runtime.Wall, sw *backhaul.Switch) error {
		cfg := federation.DefaultConfig()
		cfg.Controller.Policy = pol
		dom := federation.NewDomain(cfg, w.Eng, sw, domain, city)
		dom.OnSwitch = func(r controller.SwitchRecord) {
			if !got {
				rec, got = r, true
				w.Stop()
			}
		}
		return dom.Admit(&packet.DomainHandoffCommit{Client: Client, ClientIP: ClientIP, TargetAP: city[0].IP})
	})
	if err == nil && !got {
		err = fmt.Errorf("live: no switch on domain %d's ledger within %v", domain, timeout)
	}
	return rec, err
}

// RunAP drives AP node id: the AP protocol core (stop/start handling, ack
// emission, with the stop/start processing model the simulator runs) plus
// Script(id)'s CSI source, for the given duration. AP 0 serves the client at
// t = 0, where RunController admits it; ctlAddr is the AP's domain
// controller, packet.DomainControllerIP(federation.City(...)[id].Domain).
func RunAP(id int, conn *net.UDPConn, table map[packet.IPv4Addr]string, ctlAddr packet.IPv4Addr, duration sim.Time) (ap.Stats, error) {
	var node *ap.AP
	err := runNode(conn, table, duration, func(w *runtime.Wall, sw *backhaul.Switch) error {
		cfg := ap.DefaultConfig(id, packet.APMAC(99))
		node = ap.New(cfg, w.Eng, sw, nil, ctlAddr, rand.New(rand.NewPCG(uint64(id), 0)))
		node.Associate(Client, ClientIP, id == 0)

		script := Script(id)
		var tick func()
		tick = func() {
			now := w.Eng.Now()
			q := packet.QuantizeDB(script.StartdB + script.SlopedBPerSec*float64(now)/float64(sim.Second))
			rep := &packet.CSIReport{Client: Client, AP: cfg.IP, At: int64(now)}
			for i := range rep.SNRQ {
				rep.SNRQ[i] = q
			}
			_ = sw.Send(cfg.IP, ctlAddr, rep)
			w.Eng.After(script.Period, tick)
		}
		w.Eng.After(script.Period, tick)
		return nil
	})
	if err != nil {
		return ap.Stats{}, err
	}
	return node.Stats, nil
}
