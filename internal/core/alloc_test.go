package core

import (
	"runtime"
	"testing"

	"wgtt/internal/sim"
)

// TestDriveStepAllocs is the end-to-end allocation pin of the simulated data
// path: a steady-state 50 ms step of the Fig. 15 drive — grants, per-receiver
// frame and Block ACK events, CSI reports, downlink fan-out — may allocate
// what was measured when the air path stopped allocating per receiver, plus
// 5%. What is left is what the path hands on and someone keeps: the sender's
// packet, its decoded copy, the MPDU, the frame.
func TestDriveStepAllocs(t *testing.T) {
	const measured = 1064 // 2,032 before events, envelopes and grant scratch were pooled
	n, err := Build(DriveScenario(ModeWGTT, 15, 2017))
	if err != nil {
		t.Fatal(err)
	}
	n.Attach(Loads(1, Load{RateMbps: 50}))
	at := sim.Second // past the first switches, every free list warm
	n.RunUntil(at)
	got := testing.AllocsPerRun(40, func() {
		at += 50 * sim.Millisecond
		n.RunUntil(at)
	})
	if got > measured*1.05 {
		t.Errorf("%.0f allocations per 50 ms step of the drive, budget %d + 5%%", got, measured)
	}
	t.Logf("%.0f allocations per 50 ms step", got)
}

// TestBuildAllocBudget is the deterministic stand-in for the benchmark's
// setup_s: building the Fig. 15 scenario may allocate no more than it did
// before the uplink dedup set stopped being pre-sized (429,584 B in 278
// objects) less that 141 KiB hint — so nothing a run may never touch, a free
// list included, is sized at build time. The object count was re-pinned
// when the single controller became the one-domain federation tier, whose
// Domain and Tier wrappers add their own small maps: 277 objects measured
// (283,752 B), up to 283 under -race.
func TestBuildAllocBudget(t *testing.T) {
	const budgetBytes, budgetObjects = 429584 - 141<<10, 285
	bytes, objects := ^uint64(0), ^uint64(0)
	for i := 0; i < 3; i++ { // the least of three: the runtime's own allocations are not Build's
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := Build(DriveScenario(ModeWGTT, 15, 2017)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	if bytes > budgetBytes || objects > budgetObjects {
		t.Errorf("Build allocates %d B in %d objects, budget %d B in %d", bytes, objects, budgetBytes, budgetObjects)
	}
	t.Logf("Build allocates %d B in %d objects", bytes, objects)
}
