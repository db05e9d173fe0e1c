package fleet

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"wgtt/internal/chaos"
	"wgtt/internal/sim"
	"wgtt/internal/trace"
)

// testConfig is a deliberately tiny fleet so the determinism test stays
// fast even under -race: short corridors, fast vehicles, few cells.
func testConfig(workers int) Config {
	c := DefaultConfig()
	c.Cells = 3
	c.Seed = 7
	c.Workers = workers
	c.APsPerCell = 4
	c.ArrivalsPerMin = 12
	c.ArrivalWindow = 4 * sim.Second
	c.MaxVehicles = 2
	c.SpeedsMPH = []float64{35}
	c.UDPRateMbps = 15
	return c
}

var update = flag.Bool("update", false, "regenerate the testdata report goldens")

// checkGolden compares a rendered report against testdata/<name>.golden —
// the pin that lets the runners behind the reports be restructured: the
// goldens were recorded before the three cell runners became one harness.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("report differs from %s (run with -update if intended):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestForEachCoversAllOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 100} {
		const n = 50
		var hits [n]int32
		ForEach(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
	ForEach(0, 4, func(int) { t.Fatal("fn called for n=0") })
}

func TestPlanCellDeterministicAndIsolated(t *testing.T) {
	cfg := testConfig(1)
	a := PlanCell(cfg, 0)
	b := PlanCell(cfg, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same (seed, cell) produced different plans:\n%+v\n%+v", a, b)
	}
	other := PlanCell(cfg, 1)
	if other.Seed == a.Seed {
		t.Error("adjacent cells share a scenario seed")
	}
	if len(a.Vehicles) == 0 || a.Vehicles[0].Arrival != 0 {
		t.Fatalf("first vehicle must arrive at t=0: %+v", a.Vehicles)
	}
	if len(a.Vehicles) > cfg.MaxVehicles {
		t.Errorf("vehicle cap violated: %d", len(a.Vehicles))
	}
	// The plan must not depend on the worker knob.
	cfg8 := cfg
	cfg8.Workers = 8
	if c := PlanCell(cfg8, 0); !reflect.DeepEqual(a, c) {
		t.Error("worker count leaked into the cell plan")
	}
}

func TestPlanCellSeedChangesEverything(t *testing.T) {
	cfg := testConfig(1)
	a := PlanCell(cfg, 0)
	cfg.Seed = 8
	b := PlanCell(cfg, 0)
	if a.Seed == b.Seed {
		t.Error("fleet seed does not reach cell seeds")
	}
}

// TestFleetDeterministicAcrossWorkers is the acceptance check: a fleet run
// with 1 worker and with 4 workers must render byte-identical reports.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	serial, err := Run(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	a, b := serial.Render(), parallel.Render()
	checkGolden(t, "corridor", a)
	if a != b {
		t.Fatalf("reports differ across worker counts:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", a, b)
	}
	// And the run must have actually exercised the system.
	var vehicles int
	var switches uint64
	for _, c := range serial.Cells {
		vehicles += c.Vehicles
		switches += c.Ctl.SwitchesDone
		if c.AggMbps <= 0 {
			t.Errorf("cell %d delivered nothing", c.Cell)
		}
	}
	if vehicles < 3 {
		t.Errorf("only %d vehicles fleet-wide", vehicles)
	}
	if switches == 0 {
		t.Error("no switches anywhere in the fleet")
	}
}

// TestFleetChaosDeterministicAcrossWorkers is the DESIGN.md §11 fleet
// acceptance check: with fault injection enabled, reports must stay
// byte-identical across worker counts, and the resilience section must
// appear (and only appear) when chaos is configured.
func TestFleetChaosDeterministicAcrossWorkers(t *testing.T) {
	chaosCfg := func() *chaos.Config {
		c := chaos.DefaultConfig()
		// Compress MTBFs so the short test cells see real faults.
		c.APCrashMTBF = 10 * sim.Second
		c.APDowntime = sim.Second
		c.BackhaulBurstMTBF = 8 * sim.Second
		c.CSIBlackoutMTBF = 8 * sim.Second
		c.LatencySpikeMTBF = 8 * sim.Second
		return &c
	}
	withChaos := func(workers int) Config {
		cfg := testConfig(workers)
		cfg.Chaos = chaosCfg()
		return cfg
	}

	base, err := Run(withChaos(1))
	if err != nil {
		t.Fatal(err)
	}
	want := base.Render()
	checkGolden(t, "chaos", want)
	if !strings.Contains(want, "Resilience (fault injection") {
		t.Fatal("chaos-enabled report lacks the resilience section")
	}
	var crashes, forced uint64
	for _, c := range base.Cells {
		crashes += c.Chaos.APCrashes
		forced += c.Ctl.ForcedSwitches
	}
	if crashes == 0 {
		t.Error("compressed-MTBF fleet applied no AP crashes; the test exercised nothing")
	}
	if forced == 0 {
		t.Error("no forced failover switches anywhere in the chaos fleet")
	}

	for _, workers := range []int{4, 8} {
		res, err := Run(withChaos(workers))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Render(); got != want {
			t.Fatalf("chaos reports differ across worker counts:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s", want, workers, got)
		}
	}

	// Chaos-free reports must not grow the section.
	plain, err := Run(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.Render(), "Resilience") {
		t.Error("resilience section rendered without chaos configured")
	}
}

// TestFleetFederationDeterministicAcrossWorkers is the DESIGN.md §13 fleet
// acceptance check: with each cell's controller tier sharded into two
// domains, vehicles complete cross-domain handoffs, and reports stay
// byte-identical across worker counts.
func TestFleetFederationDeterministicAcrossWorkers(t *testing.T) {
	withDomains := func(workers int) Config {
		cfg := testConfig(workers)
		cfg.Domains = 2
		return cfg
	}

	base, err := Run(withDomains(1))
	if err != nil {
		t.Fatal(err)
	}
	want := base.Render()
	checkGolden(t, "federation", want)
	if !strings.Contains(want, "Federation (2 domains") {
		t.Fatal("federated report lacks the federation section")
	}
	var offers, cross uint64
	for _, c := range base.Cells {
		offers += c.Fed.OffersSent
		cross += c.CrossSwitches
	}
	if offers == 0 {
		t.Error("no inter-controller handoff offers anywhere in the federated fleet")
	}
	if cross == 0 {
		t.Error("no cross-domain switches completed anywhere in the federated fleet")
	}

	for _, workers := range []int{4, 8} {
		res, err := Run(withDomains(workers))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Render(); got != want {
			t.Fatalf("federated reports differ across worker counts:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s", want, workers, got)
		}
	}

	// Single-controller reports must not grow the section.
	plain, err := Run(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.Render(), "Federation (") {
		t.Error("federation section rendered without domains configured")
	}
}

func TestCellTraceRoundTrip(t *testing.T) {
	cfg := testConfig(1)
	cfg.Cells = 1
	cfg.TraceDir = t.TempDir()
	cfg.Metrics = true
	res, err := RunCell(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(math.Round(res.DurationS * 1e9)); res.Metrics.DurationNS != want {
		t.Errorf("cell snapshot covers %d ns, want the horizon once (%d)", res.Metrics.DurationNS, want)
	}
	kinds := readCellTrace(t, res)
	for _, want := range []trace.Kind{trace.KindDeliver, trace.KindFrameTx, trace.KindSwitch} {
		if kinds[want] == 0 {
			t.Errorf("trace has no %q events", want)
		}
	}

	// Metro tiles go through the same harness: every built tile writes its
	// own trace, unbuilt tiles write nothing, and tracing and metrics leave
	// the report (the untraced run's golden) untouched.
	mcfg := metroTestConfig(1)
	mcfg.TraceDir = t.TempDir()
	mcfg.Metrics = true
	traced, err := RunMetro(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metro", traced.Render())
	// Tiles advance by RunUntil epochs, never Network.Run: the snapshot must
	// still cover built tiles × horizon, what Merge gives a fleet of cells.
	if want := int64(traced.BuiltTiles) * int64(math.Round(traced.DurationS*1e9)); traced.Metrics.DurationNS != want {
		t.Errorf("metro snapshot covers %d ns, want %d tiles x horizon = %d",
			traced.Metrics.DurationNS, traced.BuiltTiles, want)
	}
	for _, tile := range traced.Tiles {
		if want := filepath.Join(mcfg.TraceDir, fmt.Sprintf("cell-%04d.jsonl", tile.Cell)); tile.TraceFile != want {
			t.Errorf("tile %d traced to %q, want %q", tile.Cell, tile.TraceFile, want)
		}
		if kinds := readCellTrace(t, tile.CellResult); tile.Bytes > 0 && kinds[trace.KindDeliver] == 0 {
			t.Errorf("tile %d delivered %d bytes but traced no deliveries", tile.Cell, tile.Bytes)
		}
	}
	files, err := os.ReadDir(mcfg.TraceDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != traced.BuiltTiles {
		t.Errorf("%d trace files for %d built tiles", len(files), traced.BuiltTiles)
	}
}

// readCellTrace reads a cell's trace file back, checks it against the
// recorder's count, and returns the events tallied by kind.
func readCellTrace(t *testing.T, res CellResult) map[trace.Kind]int {
	t.Helper()
	if res.TraceEvents == 0 || res.TraceFile == "" {
		t.Fatalf("cell %d: no trace emitted", res.Cell)
	}
	f, err := os.Open(res.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var evs []trace.Event
	for dec := json.NewDecoder(f); dec.More(); {
		var ev trace.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	if len(evs) != res.TraceEvents {
		t.Fatalf("cell %d: file has %d events, recorder counted %d", res.Cell, len(evs), res.TraceEvents)
	}
	kinds := map[trace.Kind]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
	}
	return kinds
}

func TestRunPropagatesCellError(t *testing.T) {
	cfg := testConfig(1)
	cfg.Cells = 1
	cfg.TraceDir = "/nonexistent/fleet-trace-dir"
	if _, err := Run(cfg); err == nil {
		t.Fatal("unwritable trace dir did not fail the run")
	}
}
