package main

// The reference kernel: a fixed amount of work that does not depend on the
// repository's code, run between timed slices so that the machine's
// momentary speed can be divided out of every host-time metric. This file
// must import nothing from wgtt/internal (bench_test.go checks), or a
// change to the code under test would move its own yardstick.

import (
	"math"
	"time"
)

const (
	refLanes  = 64
	refRounds = 120

	// refNominalS is the fastest refPass seen on the box the benchmark was
	// written on (2-vCPU Xeon 2.1 GHz KVM guest) when quiet, so a slowdown
	// of 1.0 means "as fast as that box at its best". Changing it rescales
	// every reference-second; do not touch it to make a number look better.
	refNominalS = 0.000137
)

var (
	refPhase = newRefPhase()
	refOut   [refLanes]float64
	refSink  float64
)

func newRefPhase() (t [refLanes]float64) {
	for i := range t {
		t[i] = 1 + float64(i)/7
	}
	return t
}

// refKernel is the arithmetic that leads the simulator's own profile —
// math.Sincos and math.Log10 — shaped like the simulator uses it: a loop
// over independent lanes (as radio.Fader.GainsDB loops over subcarriers),
// so the processor overlaps iterations and the kernel is bound by
// execution throughput. That is what makes it slow down like the
// simulator when a neighbour shares the core: the same arithmetic as one
// dependent chain is latency-bound, barely notices the neighbour, and
// under-corrected by a third (README.md, "Noise method"). It allocates
// nothing and stays in L1, so it does not disturb the simulator's caches
// either.
func refKernel() float64 {
	acc := 0.0
	for r := 0; r < refRounds; r++ {
		ph := float64(r) * 1e-3
		for i := range refOut {
			s, c := math.Sincos(refPhase[i] + ph)
			refOut[i] = 10 * math.Log10(s*s+0.5*c*c+1)
		}
		acc += refOut[r&(refLanes-1)]
	}
	return acc
}

// refPass runs the kernel once and returns its wall time in seconds.
func refPass() float64 {
	t0 := time.Now()
	refSink += refKernel()
	return time.Since(t0).Seconds()
}
