package main

import (
	"testing"

	"wgtt/internal/fleet"
)

// TestTCPFractionFlagMapping pins the -tcp-frac → Config.TCPFraction
// mapping: an explicit 0 must plan an all-UDP fleet instead of falling back
// to the library's "unset" default mix, and other values pass through.
func TestTCPFractionFlagMapping(t *testing.T) {
	for _, frac := range []float64{0.25, 0.5, 1} {
		if got := tcpFraction(frac); got != frac {
			t.Errorf("tcpFraction(%v) = %v, want it unchanged", frac, got)
		}
	}
	cfg := fleet.Config{Cells: 3, Seed: 1, TCPFraction: tcpFraction(0)}
	vehicles := 0
	for cell := 0; cell < cfg.Cells; cell++ {
		for _, v := range fleet.PlanCell(cfg, cell).Vehicles {
			vehicles++
			if v.TCP {
				t.Errorf("cell %d: -tcp-frac 0 planned a TCP vehicle", cell)
			}
		}
	}
	if vehicles < 3 {
		t.Fatalf("only %d vehicles planned; the check exercised nothing", vehicles)
	}
}
