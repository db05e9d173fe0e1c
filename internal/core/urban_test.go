package core

import (
	"testing"

	"wgtt/internal/sim"
	"wgtt/internal/urban"
)

// tinyCity keeps the quadratic medium cost down: 2x2 grid, one bus with a
// few riders, one pedestrian, short run.
func tinyCity() urban.Config {
	cfg := urban.DefaultConfig()
	cfg.Rows, cfg.Cols = 2, 2
	cfg.APSpacingM = 30
	cfg.RidersPerBus = 3
	cfg.Cars = 0
	cfg.Pedestrians = 1
	cfg.MaxDurationS = 12
	return cfg
}

// urbanScenario is UrbanScenario, failing the test on a planner error.
func urbanScenario(t *testing.T, mode Mode, cfg urban.Config, seed uint64) Scenario {
	t.Helper()
	s, err := UrbanScenario(mode, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestUrbanScenarioBuilds(t *testing.T) {
	for _, mode := range []Mode{ModeWGTT, ModeBaseline} {
		n, err := Build(urbanScenario(t, mode, tinyCity(), 7))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		city := n.Scenario.City
		if city == nil {
			t.Fatalf("%v: network lost its urban plan", mode)
		}
		if len(n.APPosition) != len(city.APs) {
			t.Fatalf("%v: %d APs for %d sites", mode, len(n.APPosition), len(city.APs))
		}
		want := len(city.Clients)
		if len(n.Clients) != want {
			t.Fatalf("%v: %d clients, want %d", mode, len(n.Clients), want)
		}
		if n.Scenario.Duration <= 0 {
			t.Fatalf("%v: duration not derived from the plan", mode)
		}
		if mode == ModeWGTT && n.Fed == nil {
			t.Fatal("wgtt urban city with 2 domains should federate")
		}
		if mode == ModeBaseline && (n.Fed != nil || n.Ctl != nil) {
			t.Fatal("baseline urban city must stay controller-free")
		}
	}
}

func TestUrbanScenarioRuns(t *testing.T) {
	n, err := Build(urbanScenario(t, ModeWGTT, tinyCity(), 7))
	if err != nil {
		t.Fatal(err)
	}
	reg := n.EnableMetrics()
	flow := n.AddDownlinkUDP(0, 1.0, 200)
	flow.Sender.Start()
	n.Run()
	holds(t, n)
	if flow.Receiver.Received == 0 {
		t.Fatal("no downlink delivered to the bus across the whole run")
	}
	urbanCounter := map[string]uint64{}
	for _, c := range reg.Snapshot().Counters {
		if c.Component == "urban" {
			urbanCounter[c.Name] = c.Value
		}
	}
	if got := urbanCounter["riders"]; got != 3 {
		t.Fatalf("urban/riders = %d, want 3", got)
	}
	if got := urbanCounter["buses"]; got != 1 {
		t.Fatalf("urban/buses = %d, want 1", got)
	}
	if got := urbanCounter["turns"]; got < 2 {
		t.Fatalf("urban/turns = %d, want ≥ 2", got)
	}
	if got := urbanCounter["route_crossings"]; got < 1 {
		t.Fatalf("urban/route_crossings = %d, want ≥ 1", got)
	}
	// The serving AP must end up somewhere real for every client.
	for i := range n.Clients {
		if ap := n.ServingAP(i); ap < 0 || ap >= len(n.APs) {
			t.Fatalf("client %d serving AP = %d out of range", i, ap)
		}
	}
}

func TestAPDomainsValidation(t *testing.T) {
	base := func() Scenario {
		s := DriveScenario(ModeWGTT, 25, 1)
		s.Duration = sim.Second
		s.Domains = 2
		return s
	}
	s := base()
	s.APDomains = []int{0, 1} // 8 APs need 8 bindings
	if _, err := Build(s); err == nil {
		t.Fatal("short APDomains accepted")
	}
	s = base()
	s.APDomains = []int{0, 0, 0, 0, 1, 1, 1, 2} // domain 2 out of range
	if _, err := Build(s); err == nil {
		t.Fatal("out-of-range domain accepted")
	}
	s = base()
	s.APDomains = []int{0, 0, 0, 0, 0, 0, 0, 0} // domain 1 owns nothing
	if _, err := Build(s); err == nil {
		t.Fatal("empty domain accepted")
	}
	// A legal non-contiguous binding builds and matches the city table.
	s = base()
	s.APDomains = []int{0, 1, 0, 1, 0, 1, 0, 1}
	n, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if n.Fed == nil {
		t.Fatal("explicit binding should still federate")
	}
}
