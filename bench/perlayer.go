package main

import (
	"fmt"
	"runtime"
	"time"

	"wgtt/internal/fleet"
)

// ratio is a/b, or 0 when the workload never exercised the denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced produces the per-layer metrics of one workload from: whole
// cycles of untraced reps (the baseline the tracing overhead is measured
// against; cycles of them, or as many as fit a third of budget when cycles
// is 0), as many cycles again under a CPU profile with spans and the
// layers' own metrics on, one rep of world 0 with every allocation
// profiled, and the direct-call timings. Nothing measured here feeds an
// end-to-end metric.
func runTraced(w workload, seed uint64, budget time.Duration, cycles int, sc scale, outDir string) result {
	res := result{Metrics: map[string]metric{}}
	fail := func(format string, args ...any) {
		res.Failed++
		res.failures = append(res.failures, fmt.Sprintf(format, args...))
	}

	base := &pass{w: w, sc: sc}
	base.cycles(seed, budget/3, cycles)
	res.absorb(base)
	if len(base.reps) < worldsPerCycle {
		return res // the failures say why; the traced reps would fail alike
	}

	tr := newTracer()
	traced := &pass{w: w, sc: sc, tr: tr}
	res.Attempted++
	shares, err := cpuShares(func() { traced.cycles(seed, 0, len(base.reps)/worldsPerCycle) })
	if err != nil {
		fail("%s: %v", w.name, err)
	}
	res.absorb(traced)

	alloc := &pass{w: w, sc: sc}
	layerAllocs := allocsByLayer(func() { alloc.rep(0) })
	res.absorb(alloc)

	res.Attempted++
	direct, err := timeDirectCalls(w, worldSeed(0), sc.directCall)
	if err != nil {
		fail("%s: direct calls: %v", w.name, err)
	}

	if len(traced.reps) == 0 || len(alloc.reps) == 0 {
		return res // the failures above say why
	}
	warnNoise(w, &base.runClock)

	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	allocUnits := alloc.reps[0].units
	for _, l := range layers {
		put(l+".cpu_share", shares[l], "fraction")
		put(l+".allocs_per_unit", layerAllocs[l]/allocUnits, "count")
	}
	put("goruntime.cpu_share", shares["goruntime"], "fraction")
	put("other.cpu_share", shares["other"], "fraction")

	t := traced.totals()
	u := t.units
	f := func(n uint64) float64 { return float64(n) }
	put("sim.events_per_unit", f(t.events)/u, "count")
	put("mac.grants_per_unit", f(t.grants)/u, "count")
	put("mac.tx_collision_frac", ratio(f(t.txColl), f(t.grants)), "fraction")
	put("mac.resp_collision_frac", ratio(f(t.respColl), f(t.respTotal)), "fraction")
	put("mac.airtime_frac", t.airtimeFrac/t.simSeconds, "fraction")
	put("ap.enqueued_per_unit", f(t.apEnqueued)/u, "count")
	put("ap.ring_overwrite_frac", ratio(f(t.apOverwritten), f(t.apEnqueued)), "fraction")
	put("ap.mpdu_drop_frac", ratio(f(t.apDropped), f(t.apDelivered+t.apDropped)), "fraction")
	put("ap.ba_forwarded_per_unit", f(t.apBAForwarded)/u, "count")
	put("backhaul.msgs_per_unit", f(t.bhMsgs)/u, "count")
	put("backhaul.bytes_per_unit", f(t.bhBytes)/u, "B")
	put("controller.csi_reports_per_unit", f(t.csiReports)/u, "count")
	put("controller.switches_per_unit", f(t.switchesDone)/u, "count")
	put("controller.copies_per_downlink", ratio(f(t.downlinkCopies), f(t.downlinkSent)), "count")
	put("controller.switch_ms_p50", quantile(t.switchMS, 0.50), "ms")
	put("controller.switch_ms_p99", quantile(t.switchMS, 0.99), "ms")
	put("controller.uplink_dup_frac", ratio(f(t.uplinkDup), f(t.uplinkDup+t.uplinkUnique)), "fraction")
	put("client.downlink_dupe_frac", ratio(f(t.clientDupes), f(t.clientDupes+t.clientMPDUs)), "fraction")
	put("transport.tcp_timeouts_per_unit", f(t.tcpTimeouts)/u, "count")
	put("fleet.migrations_per_unit", f(t.migrations)/u, "count")
	put("fleet.seam_outage_ms_per_migration", ratio(t.seamOutageMS, f(t.migrations)), "ms")
	put("federation.handoff_wire_bytes_per_migration", ratio(f(t.handoffWireBytes), f(t.migrations)), "B")

	// Host times from the traced pass, in reference units. A rep's first
	// metro epoch also holds RunMetro's own planning and tile assembly, so
	// the epoch percentiles leave it out.
	slow := traced.runClock.slowdown()
	epochs := tr.durationsMS("metro.epoch", true)
	put("fleet.epoch_ms_p50", quantile(epochs, 0.50)/slow, "ms")
	put("fleet.epoch_ms_p99", quantile(epochs, 0.99)/slow, "ms")
	put("urban.plan_s", mean(tr.durationsMS("urban.BuildMetroPlan", false))/1e3/slow, "s")
	put("core.build_ms", mean(tr.durationsMS("core.Build", false))/slow, "ms")
	speedup := 0.0
	if w.workerSpeedup != nil && runtime.NumCPU() >= 2 {
		res.Attempted++
		if speedup, err = w.workerSpeedup(worldSeed(0), sc.simFrac); err != nil {
			fail("%s: %v", w.name, err)
		}
	}
	put("fleet.speedup_w2", speedup, "ratio")

	for name, ns := range direct {
		put(name, ns, "ns")
	}

	bt := base.totals()
	put("bench.raw_units_per_wall_s", bt.units/bt.runWall, "units/s")
	put("bench.ref_slowdown", base.runClock.slowdown(), "ratio")
	put("bench.ref_pass_cv", base.runClock.cv(), "fraction")
	put("bench.trace_overhead_frac", 1-traced.unitsPerRefS()/base.unitsPerRefS(), "fraction")

	res.Attempted++
	if err := writeTrace(outDir, traceFile{Workload: w.name, Seed: seed, PerLayer: res.Metrics, Spans: tr.spans}); err != nil {
		fail("%s: writing trace: %v", w.name, err)
	}
	return res
}

// metroWorkerSpeedup is wall time of one metro at Workers=1 over Workers=2,
// both with two processors: how much the second core buys. Informational;
// callers skip it on a single-CPU box.
func metroWorkerSpeedup(seed uint64, simFrac float64) (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var wall [2]float64
	for i, workers := range []int{1, 2} {
		cfg := metroConfig(seed, simFrac)
		cfg.Workers = workers
		runtime.GC()
		t0 := time.Now()
		if _, err := fleet.RunMetro(cfg); err != nil {
			return 0, err
		}
		wall[i] = time.Since(t0).Seconds()
	}
	return wall[0] / wall[1], nil
}
