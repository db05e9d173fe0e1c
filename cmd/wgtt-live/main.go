// Command wgtt-live runs the WGTT protocol cores as separate OS processes
// over a real UDP backhaul (DESIGN.md §12): one controller and N APs on
// loopback, each with its own wall-clock run loop and socket, driving the
// scripted crossing-ramp CSI scenario through a complete §3.1.2
// stop→start→ack switch.
//
// Usage:
//
//	wgtt-live                   # orchestrate: spawn controller + 2 APs, wait for the switch
//	wgtt-live -aps 3 -timeout 5s
//	wgtt-live -federation       # two controller processes hand the client across domains
//	wgtt-live -fanout -aps 32   # measure downlink fan-out pkts/s, batched vs per-copy
//
// With -federation the orchestrator spawns two controller processes — one
// per single-AP domain (DESIGN.md §13) — plus the two APs; the run succeeds
// when domain 1 adopts the client from domain 0 over the wire and completes
// the stop→start→ack on its own domain.
//
// The orchestrator re-execs itself for the node roles (-role controller,
// -role fedcontroller, -role ap); those are plumbing, not user entry points.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"time"

	"wgtt/cmd/internal/cliflags"
	"wgtt/internal/live"
	"wgtt/internal/packet"
	"wgtt/internal/selector"
	"wgtt/internal/sim"
)

func main() {
	var (
		role       = flag.String("role", "run", "run | controller | fedcontroller | ap (node roles are spawned internally)")
		apID       = flag.Int("id", 0, "AP id (role=ap)")
		domain     = flag.Int("domain", 0, "controller domain id (role=fedcontroller)")
		listen     = flag.String("listen", "", "UDP address to bind (node roles)")
		table      = flag.String("table", "", "comma-separated endpoints: controller,ap0,ap1,... (node roles)")
		aps        = flag.Int("aps", 2, "number of AP processes (role=run), or fan-out width (-fanout)")
		federation = flag.Bool("federation", false, "run the two-controller inter-domain handoff scenario (role=run)")
		fanout     = flag.Bool("fanout", false, "measure downlink fan-out pkts/s over loopback instead of orchestrating")
		packets    = flag.Int("packets", 50000, "downlink messages to push per fan-out measurement (-fanout)")
		timeout    = flag.Duration("timeout", 10*time.Second, "give up if no switch completes in this long")
		selectorF  = cliflags.Selector() // the controller process's policy
	)
	flag.Parse()

	pol, err := selectorF.Policy()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wgtt-live:", err)
		os.Exit(1)
	}
	switch *role {
	case "run":
		if *fanout {
			err = measureFanout(*aps, *packets)
		} else if *federation {
			err = orchestrateFed(*timeout)
		} else {
			err = orchestrate(*aps, *timeout, pol)
		}
	case "controller":
		err = runController(*listen, strings.Split(*table, ","), *timeout, pol)
	case "fedcontroller":
		err = runFedController(*domain, *listen, strings.Split(*table, ","), *timeout)
	case "ap":
		err = runAP(*apID, *listen, strings.Split(*table, ","), *federation, *timeout)
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

// orchestrate spawns one controller and numAPs AP processes over loopback
// and waits for the controller to report a completed switch.
func orchestrate(numAPs int, timeout time.Duration, pol selector.Policy) error {
	if numAPs < 2 {
		return fmt.Errorf("need at least 2 APs for a switch, got %d", numAPs)
	}
	if len(live.DefaultScripts()) < numAPs {
		return fmt.Errorf("the scripted scenario defines %d CSI ramps, cannot drive %d APs",
			len(live.DefaultScripts()), numAPs)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	addrs, err := freeAddrs(numAPs + 1)
	if err != nil {
		return err
	}
	tableArg := strings.Join(addrs, ",")

	spawn := func(args ...string) (*exec.Cmd, error) {
		cmd := exec.Command(self, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		return cmd, cmd.Start()
	}

	apProcs := make([]*exec.Cmd, 0, numAPs)
	defer func() {
		for _, p := range apProcs {
			_ = p.Process.Kill()
			_ = p.Wait()
		}
	}()
	for i := 0; i < numAPs; i++ {
		p, err := spawn("-role", "ap", "-id", fmt.Sprint(i),
			"-listen", addrs[i+1], "-table", tableArg, "-timeout", timeout.String())
		if err != nil {
			return fmt.Errorf("spawning AP %d: %w", i, err)
		}
		apProcs = append(apProcs, p)
	}
	ctl, err := spawn("-role", "controller", "-selector", string(pol),
		"-listen", addrs[0], "-table", tableArg, "-timeout", timeout.String())
	if err != nil {
		return fmt.Errorf("spawning controller: %w", err)
	}
	if err := ctl.Wait(); err != nil {
		return fmt.Errorf("controller: %w", err)
	}
	fmt.Printf("wgtt-live: OK — %d processes over UDP loopback\n", numAPs+1)
	return nil
}

// orchestrateFed spawns the federated topology — two controller processes
// (one per single-AP domain) plus two APs — and waits for the adopting
// domain to report a completed inter-controller handoff. Only stable facts
// reach stdout, so back-to-back runs are byte-identical (the smoke check
// compares them).
func orchestrateFed(timeout time.Duration) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// Endpoint layout (live.FedTable): controller0, controller1, ap0, ap1.
	addrs, err := freeAddrs(live.FedDomains + 2)
	if err != nil {
		return err
	}
	tableArg := strings.Join(addrs, ",")

	spawn := func(args ...string) (*exec.Cmd, error) {
		cmd := exec.Command(self, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		return cmd, cmd.Start()
	}

	var procs []*exec.Cmd
	defer func() {
		for _, p := range procs {
			_ = p.Process.Kill()
			_ = p.Wait()
		}
	}()
	for i := 0; i < 2; i++ {
		p, err := spawn("-role", "ap", "-id", fmt.Sprint(i), "-federation",
			"-listen", addrs[live.FedDomains+i], "-table", tableArg, "-timeout", timeout.String())
		if err != nil {
			return fmt.Errorf("spawning AP %d: %w", i, err)
		}
		procs = append(procs, p)
	}
	ctl0, err := spawn("-role", "fedcontroller", "-domain", "0",
		"-listen", addrs[0], "-table", tableArg, "-timeout", timeout.String())
	if err != nil {
		return fmt.Errorf("spawning controller 0: %w", err)
	}
	procs = append(procs, ctl0)
	ctl1, err := spawn("-role", "fedcontroller", "-domain", "1",
		"-listen", addrs[1], "-table", tableArg, "-timeout", timeout.String())
	if err != nil {
		return fmt.Errorf("spawning controller 1: %w", err)
	}
	if err := ctl1.Wait(); err != nil {
		return fmt.Errorf("controller 1: %w", err)
	}
	fmt.Printf("wgtt-live: federation OK — %d processes over UDP loopback\n", live.FedDomains+2)
	return nil
}

// measureFanout runs the in-process fan-out load generator (DESIGN.md §14)
// on both send paths and prints the sustained copy rates plus the batching
// speedup. Rates are hardware-dependent, so this mode stays out of the
// byte-compared smoke paths.
func measureFanout(numAPs, packets int) error {
	batched, err := live.MeasureFanout(numAPs, packets, true)
	if err != nil {
		return err
	}
	perCopy, err := live.MeasureFanout(numAPs, packets, false)
	if err != nil {
		return err
	}
	fmt.Printf("wgtt-live: fan-out %d APs x %d packets over UDP loopback\n", numAPs, packets)
	fmt.Printf("  batched:  %12.0f pkts/s  (%d datagrams for %d copies)\n",
		batched.PktsPerSec, batched.Stats.Sent, batched.Copies)
	fmt.Printf("  per-copy: %12.0f pkts/s  (%d datagrams for %d copies)\n",
		perCopy.PktsPerSec, perCopy.Stats.Sent, perCopy.Copies)
	if perCopy.PktsPerSec > 0 {
		fmt.Printf("  speedup:  %.1fx\n", batched.PktsPerSec/perCopy.PktsPerSec)
	}
	return nil
}

// bindAndTable is the node-role common setup: bind the assigned address and
// strip self from a full endpoint table.
func bindAndTable(listen string, full map[packet.IPv4Addr]string, self packet.IPv4Addr) (*net.UDPConn, map[packet.IPv4Addr]string, error) {
	ua, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, nil, err
	}
	delete(full, self)
	return conn, full, nil
}

func runController(listen string, endpoints []string, timeout time.Duration, pol selector.Policy) error {
	conn, table, err := bindAndTable(listen, live.Table(endpoints), packet.ControllerIP)
	if err != nil {
		return err
	}
	numAPs := len(endpoints) - 1
	rec, err := live.RunController(conn, table, numAPs, sim.Time(timeout), pol)
	if err != nil {
		return err
	}
	fmt.Printf("wgtt-live: switch complete client=%v ap%d->ap%d duration=%.1fms attempts=%d\n",
		rec.Client, rec.From+1, rec.To+1, float64(rec.Duration)/float64(sim.Millisecond), rec.Attempts)
	return nil
}

func runFedController(domain int, listen string, endpoints []string, timeout time.Duration) error {
	conn, table, err := bindAndTable(listen, live.FedTable(endpoints), packet.DomainControllerIP(domain))
	if err != nil {
		return err
	}
	rec, got, err := live.RunFedController(domain, conn, table, sim.Time(timeout))
	if err != nil {
		return err
	}
	if got {
		// Stable facts only: the federation smoke compares two runs' stdout
		// byte for byte, so no durations or attempt counts here.
		fmt.Printf("wgtt-live: federation handoff complete client=%v domain%d->domain%d ap%d->ap%d forced=%v\n",
			rec.Client, rec.From, rec.To, rec.FromAP, rec.ToAP, rec.Forced)
	}
	return nil
}

func runAP(id int, listen string, endpoints []string, fed bool, timeout time.Duration) error {
	full := live.Table(endpoints)
	ctlAddr := packet.ControllerIP
	if fed {
		// Federated topology: AP i belongs to domain i and reports to its
		// own domain controller (live.FedCity).
		full = live.FedTable(endpoints)
		ctlAddr = packet.DomainControllerIP(id)
	}
	conn, table, err := bindAndTable(listen, full, packet.APIP(id))
	if err != nil {
		return err
	}
	scripts := live.DefaultScripts()
	if id >= len(scripts) {
		return fmt.Errorf("no CSI script for AP %d", id)
	}
	// APs outlive the switch by running to the full timeout; the
	// orchestrator kills them once the controller reports success.
	_, err = live.RunAP(id, conn, table, ctlAddr, scripts[id], id == 0, sim.Time(timeout))
	return err
}
