package fleet

import (
	"strings"
	"testing"

	"wgtt/internal/urban"
)

// urbanTestConfig keeps the quadratic medium cost small: two tiny cities,
// a handful of clients each, short horizons.
func urbanTestConfig(workers int) Config {
	city := urban.DefaultConfig()
	city.Rows, city.Cols = 2, 2
	city.APSpacingM = 30
	city.RidersPerBus = 2
	city.Cars = 0
	city.Pedestrians = 1
	city.MaxDurationS = 10
	c := DefaultConfig()
	c.Cells = 2
	c.Seed = 7
	c.Workers = workers
	c.UDPRateMbps = 2
	c.Urban = &city
	return c
}

// TestUrbanFleetDeterministicAcrossWorkers is the satellite determinism
// gate: same (seed, graph) must yield byte-identical routes, rider
// offsets, and reports for 1, 4, and 8 workers.
func TestUrbanFleetDeterministicAcrossWorkers(t *testing.T) {
	ref, err := Run(urbanTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Render()
	checkGolden(t, "urban", want)
	for _, workers := range []int{4, 8} {
		got, err := Run(urbanTestConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		if r := got.Render(); r != want {
			t.Fatalf("urban reports differ: workers=1 vs workers=%d:\n%s\n---\n%s", workers, want, r)
		}
	}
	// The city section must be present and the cells exercised.
	if !strings.Contains(want, "Urban workload") {
		t.Fatalf("urban section missing from report:\n%s", want)
	}
	if !strings.Contains(want, "Federation") {
		t.Fatalf("urban city with 2 domains must federate:\n%s", want)
	}
	for _, c := range ref.Cells {
		if c.AggMbps <= 0 {
			t.Errorf("urban cell %d delivered nothing", c.Cell)
		}
		if c.Urban.Buses != 1 || c.Urban.Riders != 2 {
			t.Errorf("urban cell %d mix: buses %d riders %d", c.Cell, c.Urban.Buses, c.Urban.Riders)
		}
		if c.Urban.RouteCrossings == 0 {
			t.Errorf("urban cell %d never crossed a domain boundary", c.Cell)
		}
	}
}

// A city cell runs its own city's slabs; the corridor Domains knob does not
// reach it, so a one-domain city reports no federation section.
func TestUrbanCellRunsItsCitysDomains(t *testing.T) {
	cfg := urbanTestConfig(1)
	cfg.Cells = 1
	cfg.Urban.Domains = 1
	cfg.Domains = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out := res.Render(); strings.Contains(out, "Federation (") {
		t.Fatalf("one-domain city rendered a federation section:\n%s", out)
	}
}

// TestCorridorReportHasNoUrbanSection pins the pre-urban report shape.
func TestCorridorReportHasNoUrbanSection(t *testing.T) {
	res, err := Run(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Render(), "Urban workload") {
		t.Fatal("corridor report grew an urban section")
	}
}
