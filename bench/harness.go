package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

const (
	// worldsPerCycle is the size of the fixed set of worlds every run
	// measures: world i is built from seed worldSeed0 + i. The -seed flag
	// only rotates the order the worlds are visited in, so the counted and
	// the simulated metrics do not depend on it, and reps come in whole
	// cycles, so every world weighs the same in every run.
	worldsPerCycle = 8
	worldSeed0     = 2017

	// refShare is the yardstick's share of timed host time: after every
	// timed slice the harness runs reference passes until they add up to
	// this fraction of the slices so far. Slices are about a millisecond
	// (an epoch of about 0.1 s on metro), so a noise burst from outside the
	// guest hits the yardstick as it hits the work.
	refShare = 0.15

	// setupShare is how much of a run goes into measuring setup_s: after
	// every rep of an end-to-end pass the harness builds worlds and throws
	// them away until the build slices add up to this fraction of the run
	// slices so far.
	setupShare = 0.04
)

// worldSeed is the seed world i of the fixed set is built from.
func worldSeed(i int) uint64 { return worldSeed0 + uint64(i) }

// worldAt is the world rep i of a run with -seed seed visits.
func worldAt(seed uint64, i int) int { return int((seed + uint64(i)) % worldsPerCycle) }

// scale sizes a pass. Every command-line run uses full; only the smoke test
// shrinks it, and no flag changes it.
type scale struct {
	simFrac    float64       // share of each world's simulated duration that is run
	directCall time.Duration // how long each direct call is timed
}

var full = scale{simFrac: 1, directCall: 500 * time.Millisecond}

// refClock accumulates timed slices of one kind and the reference passes
// interleaved with them.
type refClock struct {
	work   float64 // Σ timed slices, wall seconds
	slices int
	ref    float64 // Σ reference passes, wall seconds
	passes int

	// Pass times are summed in blocks of refBlock, whose means are what cv
	// describes; running sums, so that booking a slice allocates nothing.
	block             float64
	blocks            int
	blockSum, blockSq float64
}

// refBlock passes are about 40 ms of yardstick, spread over about 0.3 s of
// a run: a single pass of 0.15 ms is too short for its scatter to say
// anything about the machine.
const refBlock = 256

// slice books one timed slice of d wall seconds and runs the reference
// passes it calls for: at least one, so that none is ever further than a
// slice away from the work it is compared with.
func (c *refClock) slice(d float64) {
	c.work += d
	c.slices++
	for {
		p := refPass()
		c.ref += p
		c.block += p
		if c.passes++; c.passes%refBlock == 0 {
			c.blocks++
			c.blockSum += c.block
			c.blockSq += c.block * c.block
			c.block = 0
		}
		if c.ref >= refShare*c.work {
			return
		}
	}
}

// slowdown is the mean pass time over the pinned nominal: how much slower
// than the reference box at its best the machine was while the slices ran.
func (c *refClock) slowdown() float64 { return c.ref / float64(c.passes) / refNominalS }

// refSeconds is Σ slices in reference-seconds: wall seconds over slowdown,
// which is the ratio of sums Σ slice wall ÷ Σ pass wall, rescaled.
func (c *refClock) refSeconds() float64 { return c.work / c.slowdown() }

// cv is the coefficient of variation of the block means: how unsteady the
// machine's speed was over the run.
func (c *refClock) cv() float64 {
	if c.blocks < 2 {
		return 0
	}
	m := c.blockSum / float64(c.blocks)
	return math.Sqrt(math.Max(0, c.blockSq/float64(c.blocks)-m*m)) / m
}

// repResult is one rep: a world built from scratch, run to its end and
// harvested.
type repResult struct {
	world   int
	runWall float64 // Σ run slices, wall seconds (reference passes excluded)
	mallocs uint64  // runtime.MemStats deltas over the run slices
	allocB  uint64
	counts
}

// pass is a sequence of reps of one workload.
type pass struct {
	w     workload
	sc    scale
	tr    *tracer // nil for untraced reps
	setup bool    // measure setup_s: build-only constructions after every rep

	runClock   refClock // run slices
	setupClock refClock // the build-only constructions of setupBuilds
	reps       []repResult

	attempted int
	failures  []string
}

func (p *pass) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// rep builds, runs and harvests one world. Everything timed runs on the
// calling goroutine.
func (p *pass) rep(world int) {
	seed := worldSeed(world)
	p.attempted++
	p.tr.begin("rep")
	defer p.tr.end()

	p.tr.begin("build")
	wd, err := p.w.build(seed, p.sc.simFrac, p.tr)
	p.tr.end()
	if err != nil {
		p.fail("%s seed %d: build: %v", p.w.name, seed, err)
		return
	}

	// Every world starts from a collected heap, outside every timer; the
	// collections its own garbage causes are part of its run slices.
	runtime.GC()
	r := repResult{world: world}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	begin := time.Now()
	lap := func(name string) {
		now := time.Now()
		d := now.Sub(begin).Seconds()
		r.runWall += d
		p.tr.add(name, begin, now)
		p.runClock.slice(d) // allocates nothing
		begin = time.Now()
	}
	err = wd.run(lap)
	runtime.ReadMemStats(&after)
	if err != nil {
		p.fail("%s seed %d: run: %v", p.w.name, seed, err)
		return
	}
	r.mallocs = after.Mallocs - before.Mallocs
	r.allocB = after.TotalAlloc - before.TotalAlloc

	p.tr.begin("harvest")
	r.counts = wd.harvest()
	p.tr.end()
	p.attempted += r.checks
	for _, f := range r.failed {
		p.fail("%s seed %d: %s", p.w.name, seed, f)
	}
	p.reps = append(p.reps, r)
}

// cycles runs whole cycles of the eight worlds, visited from world seed mod
// 8 on: n of them when n is positive, otherwise the number that comes
// nearest to budget, at least one.
func (p *pass) cycles(seed uint64, budget time.Duration, n int) {
	start := time.Now()
	for c := 1; ; c++ {
		c0 := time.Now()
		for i := 0; i < worldsPerCycle; i++ {
			p.rep(worldAt(seed, i))
			if p.setup {
				p.setupBuilds()
			}
		}
		if n > 0 && c >= n || n <= 0 && time.Since(start)+time.Since(c0)/2 > budget {
			return
		}
	}
}

// setupBuilds is where setup_s comes from: it constructs worlds, one world
// after the other round the fixed set, and throws them away, at least once
// and until the build slices reach setupShare of the run slices so far,
// with reference passes between the builds as between run slices. One build
// takes well under a millisecond, so a run collects thousands, spread over
// its whole length: the machine's state changes by the second, and builds,
// which mostly allocate, respond to it differently from the yardstick, so a
// mean taken all in one place swings by 10% and more. The builds of the
// worlds the reps run are left out, so that the mean is over one kind of
// build.
func (p *pass) setupBuilds() {
	for first := true; first || p.setupClock.work < setupShare*p.runClock.work; first = false {
		s := worldSeed(p.setupClock.slices % worldsPerCycle)
		t0 := time.Now()
		_, err := p.w.build(s, p.sc.simFrac, nil)
		d := time.Since(t0).Seconds()
		if err != nil {
			p.fail("%s seed %d: build-only construction: %v", p.w.name, s, err)
			return
		}
		p.setupClock.slice(d)
	}
}

// checkRepeats is the determinism check: every rep of a world must produce
// the bit-identical outcome digest. A pass of a single cycle has no second
// rep of any world, so it runs its first world once more, untimed.
func (p *pass) checkRepeats() {
	first := map[int]uint64{}
	repeated := false
	for _, r := range p.reps {
		d, seen := first[r.world]
		if !seen {
			first[r.world] = r.digest
			continue
		}
		repeated = true
		p.attempted++
		if d != r.digest {
			p.fail("%s seed %d: outcome digest %016x differs from the first run's %016x", p.w.name, worldSeed(r.world), r.digest, d)
		}
	}
	if repeated || len(p.reps) == 0 {
		return
	}
	r := p.reps[0]
	p.attempted++
	k, err := runOnce(p.w, worldSeed(r.world), p.sc.simFrac)
	if err != nil {
		p.fail("%s seed %d: repeat run: %v", p.w.name, worldSeed(r.world), err)
	} else if k.digest != r.digest {
		p.fail("%s seed %d: outcome digest %016x differs from the first run's %016x", p.w.name, worldSeed(r.world), k.digest, r.digest)
	}
}

// runOnce builds, runs and harvests one world with no clock attached.
func runOnce(w workload, seed uint64, simFrac float64) (counts, error) {
	wd, err := w.build(seed, simFrac, nil)
	if err != nil {
		return counts{}, err
	}
	if err := wd.run(func(string) {}); err != nil {
		return counts{}, err
	}
	return wd.harvest(), nil
}

// sums over a pass's reps.
type totals struct {
	runWall         float64
	mallocs, allocB uint64
	counts          // summed (digest and check fields unused)
}

func (p *pass) totals() totals {
	var t totals
	for _, r := range p.reps {
		t.runWall += r.runWall
		t.mallocs += r.mallocs
		t.allocB += r.allocB
		t.counts.add(&r.counts)
	}
	return t
}

// add sums o into k; airtimeFrac is weighted by simulated time so that the
// total divides back to a fraction.
func (k *counts) add(o *counts) {
	k.units += o.units
	k.simSeconds += o.simSeconds
	k.offered += o.offered
	k.delivered += o.delivered
	k.payloadBytes += o.payloadBytes
	k.events += o.events
	k.grants += o.grants
	k.txColl += o.txColl
	k.respColl += o.respColl
	k.respTotal += o.respTotal
	k.airtimeFrac += o.airtimeFrac * o.simSeconds
	k.apEnqueued += o.apEnqueued
	k.apOverwritten += o.apOverwritten
	k.apDelivered += o.apDelivered
	k.apDropped += o.apDropped
	k.apBAForwarded += o.apBAForwarded
	k.bhMsgs += o.bhMsgs
	k.bhBytes += o.bhBytes
	k.csiReports += o.csiReports
	k.switchesStarted += o.switchesStarted
	k.switchesDone += o.switchesDone
	k.downlinkSent += o.downlinkSent
	k.downlinkCopies += o.downlinkCopies
	k.uplinkUnique += o.uplinkUnique
	k.uplinkDup += o.uplinkDup
	k.switchMS = append(k.switchMS, o.switchMS...)
	k.clientMPDUs += o.clientMPDUs
	k.clientDupes += o.clientDupes
	k.tcpTimeouts += o.tcpTimeouts
	k.migrations += o.migrations
	k.handoffWireBytes += o.handoffWireBytes
	k.seamOutageMS += o.seamOutageMS
}

// unitsPerRefS is Σ units over Σ run-slice reference-seconds.
func (p *pass) unitsPerRefS() float64 { return p.totals().units / p.runClock.refSeconds() }

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the six end-to-end metrics of an untraced pass.
func (p *pass) endToEnd() map[string]metric {
	t := p.totals()

	// Simulated outcomes are taken from the first rep of each world, in
	// world order: later cycles repeat them bit for bit (checkRepeats), so
	// the value depends neither on how many cycles fitted into the run nor
	// on the order -seed visited the worlds in.
	var firstRep [worldsPerCycle]*repResult
	for i := range p.reps {
		if r := &p.reps[i]; firstRep[r.world] == nil {
			firstRep[r.world] = r
		}
	}
	var goodput float64
	var offered, delivered uint64
	worlds := 0
	for _, r := range firstRep {
		if r == nil {
			continue // its rep failed, and is counted as failed
		}
		worlds++
		goodput += float64(r.payloadBytes) * 8 / 1e6 / r.simSeconds
		offered += r.offered
		delivered += r.delivered
	}
	frac := float64(delivered) / float64(offered)
	p.attempted++
	if !(frac > 0 && frac <= 1) {
		p.fail("%s: delivered_frac %v outside (0, 1]", p.w.name, frac)
	}
	return map[string]metric{
		"units_per_ref_s":   {p.unitsPerRefS(), "units/ref-s"},
		"setup_s":           {p.setupClock.refSeconds() / float64(p.setupClock.slices), "s"},
		"allocs_per_unit":   {float64(t.mallocs) / t.units, "count"},
		"alloc_kb_per_unit": {float64(t.allocB) / 1024 / t.units, "KiB"},
		"goodput_mbps":      {goodput / float64(worlds), "Mb/s"},
		"delivered_frac":    {frac, "fraction"},
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quantile returns the q-quantile of xs, interpolating between the two
// nearest order statistics; 0 for no data (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
