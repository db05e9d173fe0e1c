package core

import (
	"bufio"
	"os"
	"path/filepath"
	"testing"

	"wgtt/internal/mobility"
	"wgtt/internal/sim"
)

// shortDrive is a two-client following drive cut to its first seconds, the
// second client deferred when asked.
func shortDrive(t *testing.T, deferSecond bool) *Network {
	t.Helper()
	s := MultiClientScenario(ModeWGTT, mobility.Following, 2, 25, 9)
	s.Duration = 4 * sim.Second
	s.Clients[1].Deferred = deferSecond
	n, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestDriveReportsWhatThePrimitivesHold runs the same drive twice — flows
// attached by hand on the primitives, and through the harness — and wants
// the harness outcome to be exactly the hand-wired receivers' counts: the
// harness adds no behaviour of its own.
func TestDriveReportsWhatThePrimitivesHold(t *testing.T) {
	const udpStart = sim.Second
	ref := shortDrive(t, false)
	tcp := ref.AddDownlinkTCP(0, 0, nil)
	udp := ref.AddDownlinkUDP(1, 10, 1400)
	ref.Eng.At(0, tcp.Sender.Start)
	ref.Eng.At(udpStart, udp.Sender.Start)
	ref.Run()

	n := shortDrive(t, false)
	d := n.Attach([]Load{{TCP: true}, {RateMbps: 10, Start: udpStart}})
	n.Run()

	got := d.Outcomes()
	if !got[0].TCP || got[0].Bytes == 0 || got[0].Bytes != tcp.Receiver.DeliveredBytes {
		t.Errorf("TCP outcome %+v, hand-wired receiver delivered %d bytes", got[0], tcp.Receiver.DeliveredBytes)
	}
	if got[0].Mbps != Mbps(got[0].Bytes, n.Scenario.Duration) {
		t.Errorf("TCP Mb/s %v is not taken over the whole horizon", got[0].Mbps)
	}
	rx := udp.Receiver
	if got[1].TCP || got[1].Bytes == 0 || got[1].Bytes != rx.Bytes ||
		got[1].Sent != udp.Sender.Sent || got[1].Received != rx.Received || got[1].Loss != rx.LossRate() {
		t.Errorf("UDP outcome %+v, hand-wired flow sent %d, received %d (%d bytes), loss %v",
			got[1], udp.Sender.Sent, rx.Received, rx.Bytes, rx.LossRate())
	}
	if got[1].Mbps != Mbps(got[1].Bytes, n.Scenario.Duration-udpStart) {
		t.Errorf("UDP Mb/s %v is not taken over the client's own window", got[1].Mbps)
	}
	if d.UDP[0] != nil || d.TCP[1] != nil || d.TCP[0] == nil || d.UDP[1] == nil {
		t.Error("flow accessors do not match the loads")
	}
	// Nothing asked for a timeline or the oracle: nothing may be recorded
	// (the fleet and metro paths run this way).
	if got[1].Arrivals != nil || len(d.TCP[0].Receiver.Progress) != 0 || d.Accuracy() != 0 {
		t.Errorf("recording is on by default: %d arrivals, %d progress points, accuracy %v",
			len(got[1].Arrivals), len(d.TCP[0].Receiver.Progress), d.Accuracy())
	}
}

func TestDriveRecordsOnRequest(t *testing.T) {
	n := shortDrive(t, false)
	d := n.Attach([]Load{{TCP: true, Record: true}, {RateMbps: 10, Record: true}})
	n.Run()
	if o := d.Outcome(1); uint64(len(o.Arrivals)) != o.Received || o.Received == 0 {
		t.Errorf("%d arrivals recorded for %d datagrams received", len(o.Arrivals), o.Received)
	}
	if len(d.TCP[0].Receiver.Progress) == 0 {
		t.Error("TCP progress not recorded")
	}
}

// TestDriveDeferredLoad: a client the scenario defers gets its flow
// attached but silent, until Resume starts it at the given cursor.
func TestDriveDeferredLoad(t *testing.T) {
	n := shortDrive(t, true)
	d := n.Attach(Loads(2, Load{RateMbps: 10}))
	n.RunUntil(2 * sim.Second)
	if d.UDP[0].Sender.Sent == 0 {
		t.Fatal("the admitted client's flow never started")
	}
	if sent := d.UDP[1].Sender.Sent; sent != 0 {
		t.Fatalf("deferred flow sent %d datagrams before it was started", sent)
	}
	d.Resume(1, 700, 700)
	n.Run()
	o := d.Outcome(1)
	if o.Sent == 0 {
		t.Fatal("deferred flow did not send after Resume")
	}
	if seq, _ := d.UDP[1].Sender.Cursor(); uint64(seq) != 700+o.Sent {
		t.Errorf("cursor %d after %d datagrams from 700", seq, o.Sent)
	}
}

// TestDriveOracleMatchesIndependentSampler: on the Table-2 drive, the
// harness's accuracy is what a hand-written 10 ms sampler counts.
func TestDriveOracleMatchesIndependentSampler(t *testing.T) {
	n, err := Build(DriveScenario(ModeWGTT, 15, 2017))
	if err != nil {
		t.Fatal(err)
	}
	d := n.Attach([]Load{{RateMbps: 50}})
	ticks := 0
	d.SampleOracle(10*sim.Millisecond, func(at sim.Time, tick []OracleSample) {
		if len(tick) != 1 {
			t.Fatalf("tick has %d samples for 1 client", len(tick))
		}
		ticks++
	})
	match, total := 0, 0
	n.Every(10*sim.Millisecond, func(at sim.Time) {
		best, esnr := n.BestESNRAP(0, at)
		if esnr < 0 {
			return
		}
		total++
		if n.ServingAP(0) == best {
			match++
		}
	})
	n.Run()
	if total == 0 || ticks < total {
		t.Fatalf("oracle saw %d ticks, independent sampler %d in-range samples", ticks, total)
	}
	if want := 100 * float64(match) / float64(total); d.Accuracy() != want {
		t.Errorf("harness accuracy %v, independent sampler %v", d.Accuracy(), want)
	}
	if d.Accuracy() < 50 {
		t.Errorf("WGTT accuracy %v%% on the Table-2 drive", d.Accuracy())
	}
}

// TestDriveTrace: TraceTo streams the run's events to a file that Close
// completes, and Close reports how many it holds.
func TestDriveTrace(t *testing.T) {
	n := shortDrive(t, false)
	d := n.Attach(Loads(2, Load{RateMbps: 10}))
	if events, err := d.Close(); events != 0 || err != nil {
		t.Fatalf("Close without a trace = (%d, %v)", events, err)
	}
	path := filepath.Join(t.TempDir(), "drive.jsonl")
	if err := d.TraceTo(path); err != nil {
		t.Fatal(err)
	}
	n.Run()
	events, err := d.Close()
	if err != nil || events == 0 {
		t.Fatalf("Close = (%d, %v)", events, err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	for sc := bufio.NewScanner(f); sc.Scan(); {
		lines++
	}
	if lines != events {
		t.Errorf("file holds %d events, Close reported %d", lines, events)
	}
	if err := d.TraceTo(filepath.Join(t.TempDir(), "missing", "x.jsonl")); err == nil {
		t.Error("TraceTo into a missing directory succeeded")
	}
}

func TestMbps(t *testing.T) {
	if Mbps(1e6, sim.Second) != 8 {
		t.Error("1 MB in 1 s is not 8 Mb/s")
	}
	if Mbps(1, 0) != 0 {
		t.Error("empty span not guarded")
	}
}

// TestAirPathSamplingBudget pins how often the air path asks the radio for a
// path gain and for a fading sample. A path gain is evaluated once per loss
// draw (the capture's budget), plus a received power per beacon and per
// contender of a real overlap — nothing for the RSSI of a data frame nobody
// reads, nothing to "capture" a lone Block ACK, nothing for a frame lost to
// a collision or a Block ACK nobody keeps. A 56-subcarrier fading sample is
// taken only where the budget and the fading ceiling cannot settle the draw
// (mac's settle), and by the evaluation's ESNR oracle and the multi-channel
// probe plane, neither of which runs here. The hook runs once per
// Link.PathGainDB and Channel.Samples counts the samples; grants and response
// opportunities pin that the run under the budget is the same run.
func TestAirPathSamplingBudget(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Scenario
		// flows attaches and starts the scenario's traffic and returns what
		// it has delivered.
		flows             func(*Network) func() uint64
		grants, responses uint64
		budget            int
		samples           uint64
	}{{
		// The Fig. 15 drive: 30,295 path gains when RSSI was sampled for
		// every reception, 15,555 before declined captures were skipped;
		// 12,321 fading samples when every capture was sampled.
		name: "fig15", s: DriveScenario(ModeWGTT, 15, 2017),
		flows: func(n *Network) func() uint64 {
			d := n.Attach(Loads(1, Load{RateMbps: 50}))
			return func() uint64 { return d.Outcomes()[0].Bytes }
		},
		grants: 1016, responses: 791, budget: 13189, samples: 5371,
	}, {
		// The benchmark's corridor-mixed load: three following clients,
		// TCP down, UDP up, UDP down. 22,751 path gains before declined
		// captures were skipped, 15,317 while collided frames were still
		// sampled; 12,361 fading samples when every capture was sampled.
		name: "corridor-mixed", s: MultiClientScenario(ModeWGTT, mobility.Following, 3, 25, 2017),
		flows: func(n *Network) func() uint64 {
			tcp := n.AddDownlinkTCP(0, 0, nil)
			up := n.AddUplinkUDP(1, 10, 1400)
			down := n.AddDownlinkUDP(2, 10, 1400)
			down.Sender.Start()
			up.Sender.Start()
			tcp.Sender.Start()
			return func() uint64 { return tcp.Receiver.DeliveredBytes + up.Receiver.Bytes + down.Receiver.Bytes }
		},
		grants: 1309, responses: 861, budget: 14530, samples: 5367,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			s.Duration = 3 * sim.Second
			evals := 0
			s.obstruction = func(a, b mobility.Point) float64 { evals++; return 0 }
			n, err := Build(s)
			if err != nil {
				t.Fatal(err)
			}
			delivered := tc.flows(n)
			n.Run()
			if delivered() == 0 {
				t.Fatal("nothing delivered")
			}
			if n.Medium.Grants != tc.grants || n.Medium.RespTotal != tc.responses {
				t.Fatalf("grants %d, response opportunities %d: not the run the budget was taken on (%d, %d)",
					n.Medium.Grants, n.Medium.RespTotal, tc.grants, tc.responses)
			}
			if evals > tc.budget {
				t.Errorf("%d path-gain evaluations, budget %d", evals, tc.budget)
			}
			if got := n.Channel.Samples; got > tc.samples {
				t.Errorf("%d fading samples, budget %d", got, tc.samples)
			}
			t.Logf("%d path-gain evaluations, %d fading samples", evals, n.Channel.Samples)
		})
	}
}
