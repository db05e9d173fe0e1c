package live

import (
	"net"
	"testing"

	"wgtt/internal/ap"
	"wgtt/internal/backhaul"
	"wgtt/internal/controller"
	"wgtt/internal/federation"
	"wgtt/internal/packet"
	"wgtt/internal/runtime"
	"wgtt/internal/sim"
)

func bind(t *testing.T) *net.UDPConn {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// loopback binds n nodes' sockets — controllers first, then APs, as Table
// lays them out — and returns them with each node's peer table, which
// lists every other node.
func loopback(t *testing.T, n, controllers int) ([]*net.UDPConn, func(self packet.IPv4Addr) map[packet.IPv4Addr]string) {
	conns := make([]*net.UDPConn, n)
	eps := make([]string, n)
	for i := range conns {
		conns[i] = bind(t)
		eps[i] = conns[i].LocalAddr().String()
	}
	full := Table(eps, controllers)
	return conns, func(self packet.IPv4Addr) map[packet.IPv4Addr]string {
		m := make(map[packet.IPv4Addr]string, len(full)-1)
		for a, ep := range full {
			if a != self {
				m[a] = ep
			}
		}
		return m
	}
}

// runAPs starts one AP node per city entry, each reporting to its domain's
// controller, and returns their results, one channel each.
func runAPs(conns []*net.UDPConn, tableFor func(packet.IPv4Addr) map[packet.IPv4Addr]string, city []federation.APAssignment, timeout sim.Time) []chan apResult {
	controllers := len(conns) - len(city)
	done := make([]chan apResult, len(city))
	for i := range done {
		done[i] = make(chan apResult, 1)
		go func(id int) {
			st, err := RunAP(id, conns[controllers+id], tableFor(packet.APIP(id)),
				packet.DomainControllerIP(city[id].Domain), timeout)
			done[id] <- apResult{st, err}
		}(i)
	}
	return done
}

type apResult struct {
	stats ap.Stats
	err   error
}

// checkAPs waits for the AP nodes and asserts AP 0 handled a stop and AP 1
// a start.
func checkAPs(t *testing.T, done []chan apResult) {
	t.Helper()
	for i, ch := range done {
		res := <-ch
		if res.err != nil {
			t.Fatalf("AP %d: %v", i, res.err)
		}
		if i == 0 && res.stats.StopsHandled == 0 {
			t.Errorf("AP 0 handled no stop")
		}
		if i == 1 && res.stats.StartsHandled == 0 {
			t.Errorf("AP 1 handled no start")
		}
	}
}

// Three wall-clock nodes over UDP loopback — controller plus two APs with
// crossing CSI ramps — must complete one full §3.1.2 stop→start→ack switch
// from AP 0 to AP 1, every message crossing a real socket in wire encoding.
func TestThreeNodeSwitchOverLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time multi-node run")
	}
	conns, tableFor := loopback(t, 3, 1)
	apDone := runAPs(conns, tableFor, federation.City(2, 1), 2*sim.Second)

	rec, err := RunController(0, conns[0], tableFor(packet.ControllerIP), federation.City(2, 1), 2*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rec.From != 0 || rec.To != 1 {
		t.Fatalf("switch %d -> %d, want 0 -> 1", rec.From, rec.To)
	}
	if rec.Client != Client {
		t.Fatalf("switched client %v, want %v", rec.Client, Client)
	}
	if rec.Duration <= 0 {
		t.Fatalf("switch duration %v, want > 0 (real elapsed time)", rec.Duration)
	}
	// A first-try handshake takes at least the two APs' shortest processing
	// delays (Table 1's model, the simulator's) and ends before the
	// controller's 30 ms stop retransmission.
	floor := ap.StopProcessing + ap.StartProcessing - 2*ap.ProcessingJitter
	if rec.Attempts == 1 && (rec.Duration < floor || rec.Duration >= 30*sim.Millisecond) {
		t.Fatalf("first-try switch took %v, want in [%v, 30ms)", rec.Duration, floor)
	}
	if rec.Forced {
		t.Fatal("switch reported forced; want a clean stop->start->ack handshake")
	}
	checkAPs(t, apDone)
}

// A live node's backhaul is the simulator's switch, so its Drop hook — the
// one chaos.Injector.Arm composes onto — reaches the wire: the controller's
// first stop is never written, and the real 30 ms retransmission timer
// still completes the handover unforced.
func TestLostStopRetransmittedOverLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time multi-node run")
	}
	conns, tableFor := loopback(t, 3, 1)
	city := federation.City(2, 1)
	apDone := runAPs(conns, tableFor, city, 2*sim.Second)

	var (
		rec  controller.SwitchRecord
		got  bool
		lost int
	)
	err := runNode(conns[0], tableFor(packet.ControllerIP), 2*sim.Second, func(w *runtime.Wall, sw *backhaul.Switch) error {
		sw.Drop = func(_ packet.IPv4Addr, msg packet.Message) bool {
			if lost > 0 || msg.Type() != packet.MsgStop {
				return false
			}
			lost++
			return true
		}
		dom := federation.NewDomain(federation.DefaultConfig(), w.Eng, sw, 0, city)
		dom.OnSwitch = func(r controller.SwitchRecord) {
			if !got {
				rec, got = r, true
				w.Stop()
			}
		}
		return dom.Admit(&packet.DomainHandoffCommit{Client: Client, ClientIP: ClientIP, TargetAP: city[0].IP})
	})
	if err != nil {
		t.Fatal(err)
	}
	if lost != 1 {
		t.Fatalf("dropped %d stops, want the first", lost)
	}
	if !got || rec.From != 0 || rec.To != 1 || rec.Forced {
		t.Fatalf("switch %+v (completed %v), want an unforced 0 -> 1", rec, got)
	}
	if rec.Attempts < 2 || rec.Duration < 30*sim.Millisecond {
		t.Fatalf("switch took %d attempts in %v, want >= 2 and >= 30ms (the stop retransmission)", rec.Attempts, rec.Duration)
	}
	t.Logf("switch after a lost stop: %d attempts, %v", rec.Attempts, rec.Duration)
	checkAPs(t, apDone)
}

// Four wall-clock nodes over UDP loopback — two single-AP domain
// controllers plus their APs — must complete one inter-controller handoff
// (DESIGN.md §13): domain 1's AP relays rising CSI to the owning domain 0,
// domain 0 exports the client's state bundle over the wire, and domain 1
// resumes the §3.1.2 stop→start→ack against the old domain's AP. The pull
// lands on the adopter's ledger, never on the exporter's.
func TestFourNodeFederatedHandoffOverLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time multi-node run")
	}
	const domains = 2
	city := federation.City(2, domains)
	conns, tableFor := loopback(t, 4, domains)
	const timeout = 3 * sim.Second
	apDone := runAPs(conns, tableFor, city, timeout)
	type ctlResult struct {
		rec controller.SwitchRecord
		err error
	}
	dom0Done := make(chan ctlResult, 1)
	go func() {
		rec, err := RunController(0, conns[0], tableFor(packet.DomainControllerIP(0)), city, timeout)
		dom0Done <- ctlResult{rec, err}
	}()

	rec, err := RunController(1, conns[1], tableFor(packet.DomainControllerIP(1)), city, timeout)
	if err != nil {
		t.Fatal(err)
	}
	if rec.From != 0 || rec.To != 1 {
		t.Fatalf("handoff ap%d -> ap%d, want 0 -> 1", rec.From, rec.To)
	}
	if city[rec.From].Domain != 0 || city[rec.To].Domain != 1 {
		t.Fatalf("handoff domain%d -> domain%d, want 0 -> 1", city[rec.From].Domain, city[rec.To].Domain)
	}
	if rec.Client != Client {
		t.Fatalf("handed off client %v, want %v", rec.Client, Client)
	}
	if rec.Duration <= 0 {
		t.Fatalf("cross-domain switch duration %v, want > 0 (real elapsed time)", rec.Duration)
	}
	if rec.Forced {
		t.Fatal("cross-domain switch reported forced; want a clean stop->start->ack")
	}

	if res := <-dom0Done; res.err == nil {
		t.Fatalf("exporting domain 0 reported switch %+v; the pull belongs on domain 1's ledger", res.rec)
	}
	checkAPs(t, apDone)
}

// Table must place domain d's controller at entry d and AP i after the
// controllers; one controller is the single-domain layout.
func TestTableLayout(t *testing.T) {
	eps := []string{"a:1", "b:2", "c:3"}
	tb := Table(eps, 1)
	if len(tb) != 3 || tb[packet.ControllerIP] != "a:1" || tb[packet.APIP(0)] != "b:2" || tb[packet.APIP(1)] != "c:3" {
		t.Fatalf("table = %v", tb)
	}
	tb = Table(eps, 2)
	if len(tb) != 3 || tb[packet.DomainControllerIP(0)] != "a:1" || tb[packet.DomainControllerIP(1)] != "b:2" || tb[packet.APIP(0)] != "c:3" {
		t.Fatalf("two-controller table = %v", tb)
	}
}

// An AP beyond the two crossing ramps must never be the argmax: its flat
// ramp stays below both until well past the scripted switch.
func TestExtraAPsStayBelowTheRamps(t *testing.T) {
	at := func(s CSIScript, sec float64) float64 { return s.StartdB + s.SlopedBPerSec*sec }
	for _, sec := range []float64{0, 0.24, 0.5} {
		if extra := at(Script(2), sec); extra >= at(Script(0), sec) || extra >= at(Script(1), sec) {
			t.Errorf("t=%vs: AP 2 reports %v dB, ramps %v and %v", sec, extra, at(Script(0), sec), at(Script(1), sec))
		}
	}
	if Script(2) != Script(7) {
		t.Error("APs beyond the ramps do not share one script")
	}
}
