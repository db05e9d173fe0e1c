// Command wgtt-live runs the WGTT protocol cores as separate OS processes
// over a real UDP backhaul (DESIGN.md §12): one controller and N APs on
// loopback, each with its own wall-paced engine and socket, driving the
// scripted crossing-ramp CSI scenario through a complete §3.1.2
// stop→start→ack switch.
//
// Usage:
//
//	wgtt-live                   # orchestrate: spawn controller + 2 APs, wait for the switch
//	wgtt-live -aps 3 -timeout 5s # APs past the two crossing ramps report a flat, weaker link
//	wgtt-live -federation       # two controller processes hand the client across domains
//	wgtt-live -fanout -aps 32   # measure downlink fan-out pkts/s
//
// With -federation the orchestrator spawns two controller processes — one
// per single-AP domain (DESIGN.md §13) — plus the two APs; the run succeeds
// when domain 1 adopts the client from domain 0 over the wire and completes
// the stop→start→ack on its own domain.
//
// The orchestrator re-execs itself for the node roles (-role controller,
// -role ap, with -federation passed on); those are plumbing, not user entry
// points.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"time"

	"wgtt/internal/federation"
	"wgtt/internal/live"
	"wgtt/internal/packet"
	"wgtt/internal/sim"
)

func main() {
	var (
		role       = flag.String("role", "run", "run | controller | ap (node roles are spawned internally)")
		apID       = flag.Int("id", 0, "AP id (role=ap)")
		domain     = flag.Int("domain", 0, "controller domain id (role=controller)")
		listen     = flag.String("listen", "", "UDP address to bind (node roles)")
		table      = flag.String("table", "", "comma-separated endpoints: controller(s),ap0,ap1,... (node roles)")
		aps        = flag.Int("aps", 2, "number of AP processes (role=run), or fan-out width (-fanout)")
		federation = flag.Bool("federation", false, "run the two-controller inter-domain handoff scenario")
		fanout     = flag.Bool("fanout", false, "measure downlink fan-out pkts/s over loopback instead of orchestrating")
		packets    = flag.Int("packets", 50000, "downlink messages to push per fan-out measurement (-fanout)")
		timeout    = flag.Duration("timeout", 10*time.Second, "give up if no switch completes in this long")
	)
	flag.Parse()

	// -federation is the topology (federation.City): two single-AP domains,
	// one controller process each, instead of one controller over every AP.
	controllers, cityAPs := 1, *aps
	if *federation {
		controllers, cityAPs = 2, 2
	}
	var err error
	switch *role {
	case "run":
		err = packet.CheckAddressPlan(*aps, 1)
		if err == nil && *fanout {
			err = measureFanout(*aps, *packets)
		} else if err == nil {
			err = orchestrate(controllers, cityAPs, *timeout)
		}
	case "controller":
		err = runController(*domain, *listen, strings.Split(*table, ","), controllers, *timeout)
	case "ap":
		err = runAP(*apID, *listen, strings.Split(*table, ","), controllers, *timeout)
	default:
		err = fmt.Errorf("unknown role %q", *role)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wgtt-live:", err)
		os.Exit(1)
	}
}

// freeAddrs reserves n loopback UDP addresses by binding ephemeral ports,
// then releasing them for the node processes to re-bind. The window between
// release and re-bind is a benign race on loopback smoke runs.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	conns := make([]*net.UDPConn, n)
	for i := 0; i < n; i++ {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, err
		}
		conns[i] = c
		addrs[i] = c.LocalAddr().String()
	}
	for _, c := range conns {
		c.Close()
	}
	return addrs, nil
}

// orchestrate spawns the AP processes, then one controller process per
// domain, over loopback, and waits for the last controller: the one that
// reports the completed switch, or — with two — the domain that adopts the
// client in an inter-controller handoff. Every other process is killed once
// it has. Only stable facts reach stdout, so back-to-back federation runs
// are byte-identical (the smoke check compares them).
func orchestrate(controllers, aps int, timeout time.Duration) error {
	if aps < 2 {
		return fmt.Errorf("need at least 2 APs for a switch, got %d", aps)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// Endpoint layout (live.Table): the controllers, then the APs.
	addrs, err := freeAddrs(controllers + aps)
	if err != nil {
		return err
	}
	common := []string{"-table", strings.Join(addrs, ","), "-timeout", timeout.String()}
	ok := "OK"
	if controllers > 1 {
		common = append(common, "-federation")
		ok = "federation OK"
	}

	var procs []*exec.Cmd
	defer func() {
		for _, p := range procs {
			_ = p.Process.Kill()
			_ = p.Wait()
		}
	}()
	spawn := func(listen string, args ...string) error {
		cmd := exec.Command(self, append(append(args, "-listen", listen), common...)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("spawning %v: %w", args, err)
		}
		procs = append(procs, cmd)
		return nil
	}
	for i := 0; i < aps; i++ {
		if err := spawn(addrs[controllers+i], "-role", "ap", "-id", fmt.Sprint(i)); err != nil {
			return err
		}
	}
	for d := 0; d < controllers; d++ {
		if err := spawn(addrs[d], "-role", "controller", "-domain", fmt.Sprint(d)); err != nil {
			return err
		}
	}
	last := procs[len(procs)-1]
	procs = procs[:len(procs)-1]
	if err := last.Wait(); err != nil {
		return fmt.Errorf("controller %d: %w", controllers-1, err)
	}
	fmt.Printf("wgtt-live: %s — %d processes over UDP loopback\n", ok, controllers+aps)
	return nil
}

// measureFanout runs the in-process fan-out load generator (DESIGN.md §14)
// and prints the sustained copy rate. Rates are hardware-dependent, so this
// mode stays out of the byte-compared smoke paths.
func measureFanout(numAPs, packets int) error {
	r, err := live.MeasureFanout(numAPs, packets)
	if err != nil {
		return err
	}
	fmt.Printf("wgtt-live: fan-out %d APs x %d packets over UDP loopback\n", numAPs, packets)
	fmt.Printf("  %12.0f pkts/s  (%d copies, one datagram each)\n", r.PktsPerSec, r.Copies)
	return nil
}

// bindAndTable is the node-role common setup: bind the assigned address and
// strip self from the full endpoint table.
func bindAndTable(listen string, endpoints []string, controllers int, self packet.IPv4Addr) (*net.UDPConn, map[packet.IPv4Addr]string, error) {
	ua, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, nil, err
	}
	table := live.Table(endpoints, controllers)
	delete(table, self)
	return conn, table, nil
}

// runController is domain's controller process over the city the endpoint
// table describes, and prints the first switch on its ledger: a cross-domain
// switch as the federation handoff, any other as the switch.
func runController(domain int, listen string, endpoints []string, controllers int, timeout time.Duration) error {
	conn, table, err := bindAndTable(listen, endpoints, controllers, packet.DomainControllerIP(domain))
	if err != nil {
		return err
	}
	city := federation.City(len(endpoints)-controllers, controllers)
	rec, err := live.RunController(domain, conn, table, city, sim.Time(timeout))
	if err != nil {
		return err
	}
	if from, to := city[rec.From].Domain, city[rec.To].Domain; from != to {
		// Stable facts only: the federation smoke compares two runs' stdout
		// byte for byte, so no durations or attempt counts here.
		fmt.Printf("wgtt-live: federation handoff complete client=%v domain%d->domain%d %s->%s forced=%v\n",
			rec.Client, from, to, packet.APName(rec.From), packet.APName(rec.To), rec.Forced)
		return nil
	}
	fmt.Printf("wgtt-live: switch complete client=%v %s->%s duration=%.1fms attempts=%d\n",
		rec.Client, packet.APName(rec.From), packet.APName(rec.To), float64(rec.Duration)/float64(sim.Millisecond), rec.Attempts)
	return nil
}

// runAP is AP id's process, reporting to its domain's controller.
func runAP(id int, listen string, endpoints []string, controllers int, timeout time.Duration) error {
	conn, table, err := bindAndTable(listen, endpoints, controllers, packet.APIP(id))
	if err != nil {
		return err
	}
	city := federation.City(len(endpoints)-controllers, controllers)
	// APs outlive the switch by running to the full timeout; the
	// orchestrator kills them once the controller reports success.
	_, err = live.RunAP(id, conn, table, packet.DomainControllerIP(city[id].Domain), sim.Time(timeout))
	return err
}
