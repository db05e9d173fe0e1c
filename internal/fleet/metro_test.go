package fleet

import (
	"errors"
	"maps"
	"os"
	"strings"
	"testing"

	"wgtt/internal/packet"
	"wgtt/internal/urban"
)

// metroTestConfig keeps the quadratic medium cost small: a 3x3-block city
// cut into 2x2 tiles, six clients, a short horizon — but with real seam
// crossings, which is the whole point.
func metroTestConfig(workers int) Config {
	city := urban.DefaultConfig()
	city.Rows, city.Cols = 3, 3
	city.APSpacingM = 30
	city.RidersPerBus = 3
	city.Cars = 1
	city.Pedestrians = 1
	city.MaxDurationS = 15
	city.Domains = 1 // metro cities are tiled, not slab-federated
	return Config{
		Seed:        7,
		Workers:     workers,
		UDPRateMbps: 4,
		Metro: &urban.MetroConfig{
			Tiles: urban.Tiling{Rows: 2, Cols: 2},
			City:  city,
		},
	}
}

// TestMetroDeterministicAcrossWorkers is the tentpole determinism gate:
// one connected city, clients migrating across tile seams, and the report
// must come out byte-identical for 1, 4, and 8 workers.
func TestMetroDeterministicAcrossWorkers(t *testing.T) {
	ref, err := RunMetro(metroTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Render()
	checkGolden(t, "metro", want)
	for _, workers := range []int{4, 8} {
		got, err := RunMetro(metroTestConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		if r := got.Render(); r != want {
			t.Fatalf("metro reports differ: workers=1 vs workers=%d:\n%s\n---\n%s", workers, want, r)
		}
	}
	if ref.Stats.Migrations == 0 {
		t.Fatalf("connected metro performed no migrations:\n%s", want)
	}
	if ref.Stats.Migrations > uint64(ref.Crossings) {
		t.Fatalf("migrations %d exceed planned crossings %d", ref.Stats.Migrations, ref.Crossings)
	}
	if ref.Stats.HandoffWireBytes == 0 {
		t.Fatal("migrations happened but no handoff bytes crossed the wire")
	}
	if ref.Stats.SeamOutage <= 0 {
		t.Fatal("migrations happened with zero seam outage (barrier quantization must cost time)")
	}
	if ref.AggMbps <= 0 {
		t.Fatal("metro delivered nothing")
	}
	if ref.Stats.Received > ref.Stats.Sent {
		t.Fatalf("received %d > sent %d", ref.Stats.Received, ref.Stats.Sent)
	}
	if ref.BuiltTiles < 2 {
		t.Fatalf("built tiles %d: a connected metro test needs at least two", ref.BuiltTiles)
	}
	// Migration bookkeeping must balance: every export is someone's import.
	var in, out uint64
	for _, tile := range ref.Tiles {
		in += tile.MigrationsIn
		out += tile.MigrationsOut
	}
	if in != out || in != ref.Stats.Migrations {
		t.Fatalf("migration ledger unbalanced: in %d out %d total %d", in, out, ref.Stats.Migrations)
	}
}

// TestMetroMetricsNameCityNodes checks the merged metro snapshot names each
// node once, by its city-wide identity: one AP row set per AP site of a
// built tile, one client row set per metro client. Tiles name their nodes
// by tile-local index, so without the renaming ap1 sums a different AP from
// every tile.
func TestMetroMetricsNameCityNodes(t *testing.T) {
	cfg := metroTestConfig(2)
	cfg.Metrics = true
	m, err := newMetroRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < m.epochs; k++ {
		m.runEpoch(k)
	}
	res, err := m.finish()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, tile := range res.Tiles {
		for _, site := range m.Plan.TileAPs[tile.Cell] {
			want[packet.APName(site)] = true
		}
	}
	for id := range res.Clients {
		want[packet.ClientName(id+1)] = true
	}
	got := map[string]bool{}
	for _, c := range res.Metrics.Counters {
		if strings.HasPrefix(c.Component, "ap") || strings.HasPrefix(c.Component, "client") {
			got[c.Component] = true
		}
	}
	for _, h := range res.Metrics.Histograms {
		if strings.HasPrefix(h.Component, "ap") && !want[h.Component] {
			t.Errorf("histogram row %s names no built AP site", h.Component)
		}
	}
	if !maps.Equal(got, want) {
		t.Fatalf("per-node rows %v, want one per AP site and metro client %v", got, want)
	}
}

// TestMetroIsolatedCutsSeams pins the ext-metro ablation: the same city
// with seams cut performs no migrations and says so in the report.
func TestMetroIsolatedCutsSeams(t *testing.T) {
	cfg := metroTestConfig(4)
	cfg.MetroIsolated = true
	res, err := RunMetro(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Migrations != 0 {
		t.Fatalf("isolated metro migrated %d clients", res.Stats.Migrations)
	}
	if res.Stats.SeamOutage != 0 || res.Stats.HandoffWireBytes != 0 {
		t.Fatalf("isolated metro has seam costs: outage %v wire %d",
			res.Stats.SeamOutage, res.Stats.HandoffWireBytes)
	}
	checkGolden(t, "metro-isolated", res.Render())
	if !strings.Contains(res.Render(), "isolated (seams cut)") {
		t.Fatalf("isolated report does not say so:\n%s", res.Render())
	}
	// The planner still counts the crossings the seams would have carried.
	if res.Crossings == 0 {
		t.Fatal("isolated plan shows no crossings — the ablation compares nothing")
	}
}

// TestMetroTileLossIsTheTilesOwn runs the `fleet-metro` city of
// cmd/testdata/cases.txt (seed 7, 4x4 blocks, 20 s, 1 Mb/s) and checks every
// tile's per-client loss against the tile's own datagram counts. A migrated-in
// flow resumes at the source tile's sequence cursor; charging the tile every
// datagram below that cursor reported 0.72 loss for a client that lost one
// datagram of 492. Loss counts up to the last datagram received, so it
// may sit below (sent-received)/sent by what was still queued at the horizon
// — two datagrams at most at this rate.
func TestMetroTileLossIsTheTilesOwn(t *testing.T) {
	metro := urban.DefaultMetroConfig()
	metro.City.Rows, metro.City.Cols = 4, 4
	metro.City.RidersPerBus, metro.City.Cars, metro.City.Pedestrians = 3, 1, 1
	metro.City.MaxDurationS = 20
	res, err := RunMetro(Config{Seed: 7, Workers: 2, UDPRateMbps: 1, Metro: &metro})
	if err != nil {
		t.Fatal(err)
	}
	var migratedIn uint64
	for _, tile := range res.Tiles {
		migratedIn += tile.MigrationsIn
		for i, f := range tile.Flows {
			if f.Sent == 0 {
				continue
			}
			own := float64(f.Sent-f.Received) / float64(f.Sent)
			if f.Loss > own || own-f.Loss > 2/float64(f.Sent) {
				t.Errorf("tile %d client %d: loss %.4f, but the tile sent %d and delivered %d (%.4f)",
					tile.Cell, i, f.Loss, f.Sent, f.Received, own)
			}
		}
	}
	if migratedIn == 0 {
		t.Fatal("no client migrated into any tile — the check exercised nothing")
	}
}

// TestMetroRunRejectsConfigConflicts pins the mode split and the mutual
// exclusions: metro deployments run via RunMetro only, and a metro cannot
// stack the per-cell urban/chaos/federation layers.
func TestMetroRunRejectsConfigConflicts(t *testing.T) {
	if _, err := Run(metroTestConfig(1)); err == nil {
		t.Fatal("Run accepted a metro config")
	}
	if _, err := RunMetro(Config{Seed: 1}); err == nil {
		t.Fatal("RunMetro accepted a config without Metro")
	}
	bad := metroTestConfig(1)
	bad.Urban = &bad.Metro.City
	if _, err := RunMetro(bad); err == nil {
		t.Fatal("RunMetro accepted Metro+Urban")
	}
	bad = metroTestConfig(1)
	bad.Domains = 2
	if _, err := RunMetro(bad); err == nil {
		t.Fatal("RunMetro accepted Metro+Domains")
	}
}

// TestMetroProgressReportsEpochs checks the progress hook fires once per
// epoch with a monotone (done, total) sequence.
func TestMetroProgressReportsEpochs(t *testing.T) {
	cfg := metroTestConfig(2)
	cfg.Metro.City.MaxDurationS = 5
	var dones []int
	total := -1
	cfg.Progress = func(done, tot int) {
		dones = append(dones, done)
		total = tot
	}
	res, err := RunMetro(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if total != res.Epochs {
		t.Fatalf("progress total %d, want %d epochs", total, res.Epochs)
	}
	if len(dones) != res.Epochs {
		t.Fatalf("progress fired %d times, want %d", len(dones), res.Epochs)
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("progress sequence %v not monotone", dones)
		}
	}
}

// TestMetroFinishClosesTracesOnError: a tile whose trace cannot be completed
// fails the run, and the tiles not yet harvested still release their files.
func TestMetroFinishClosesTracesOnError(t *testing.T) {
	cfg := metroTestConfig(1)
	cfg.TraceDir = t.TempDir()
	m, err := newMetroRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.built) < 2 {
		t.Fatalf("need at least 2 built tiles, got %d", len(m.built))
	}
	m.built[0].drive.Close()
	if _, err := m.finish(); err == nil {
		t.Fatal("finish succeeded with a closed trace file")
	}
	for _, tile := range m.built[1:] {
		if _, err := tile.drive.Close(); !errors.Is(err, os.ErrClosed) {
			t.Errorf("tile %d trace left open after a failed finish (Close: %v)", tile.res.Cell, err)
		}
	}
}
