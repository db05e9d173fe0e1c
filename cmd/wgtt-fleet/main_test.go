package main

import (
	"strings"
	"testing"

	"wgtt/internal/fleet"
)

// TestCheckRun pins the flag validation: every rejected row below used to
// run some other fleet silently or print a nonsense tally.
func TestCheckRun(t *testing.T) {
	for _, tc := range []struct {
		cells, workers int
		rate           float64
		metro, compare bool
		wantErr        string // substring; "" = accepted
	}{
		{8, 2, 20, false, false, ""},
		{1, 0, 0.5, false, true, ""}, // 0 workers runs sequentially
		{8, 2, 1, true, false, ""},   // a metro ignores -cells
		{0, 2, 20, false, false, "-cells"},
		{-3, 2, 20, false, false, "-cells"},
		{8, -3, 20, false, false, "-workers"},
		{8, 2, 0, false, false, "-rate"},
		{8, 2, -1, true, false, "-rate"},
		{8, 2, 1, true, true, "-compare-selectors"},
	} {
		err := checkRun(tc.cells, tc.workers, tc.rate, tc.metro, tc.compare)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%+v: rejected: %v", tc, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%+v: error %v, want one naming %s", tc, err, tc.wantErr)
		}
	}
}

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
