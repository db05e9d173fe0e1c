package main

import (
	"flag"
	"reflect"
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
		wantErr        string // substring; "" = accepted
	}{
		{8, 2, 20, ""},
		{1, 0, 0.5, ""}, // 0 workers runs sequentially
		{0, 2, 20, "-cells"},
		{-3, 2, 20, "-cells"},
		{8, -3, 20, "-workers"},
		{8, 2, 0, "-rate"},
		{8, 2, -1, "-rate"},
	} {
		err := checkRun(tc.cells, tc.workers, tc.rate)
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

// TestConfigFlags pins the corridor flags to the library: parsed with no
// arguments they give fleet.DefaultConfig() field for field, and an
// explicit -tcp-frac 0 plans an all-UDP fleet.
func TestConfigFlags(t *testing.T) {
	parse := func(args ...string) fleet.Config {
		fs := flag.NewFlagSet("wgtt-fleet", flag.ContinueOnError)
		cfg := configFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return cfg()
	}
	if got, want := parse(), fleet.DefaultConfig(); !reflect.DeepEqual(got, want) {
		t.Errorf("flag defaults give\n%+v\nwant fleet.DefaultConfig()\n%+v", got, want)
	}
	cfg := parse("-tcp-frac", "0", "-speeds", "15, 35")
	if !reflect.DeepEqual(cfg.SpeedsMPH, []float64{15, 35}) {
		t.Errorf("-speeds \"15, 35\" parsed to %v", cfg.SpeedsMPH)
	}
	vehicles := 0
	for cell := 0; cell < 3; cell++ {
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
