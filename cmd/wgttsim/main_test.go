package main

import (
	"strings"
	"testing"

	"wgtt/internal/core"
)

// TestParseRun pins the flag validation: every bad value below used to run
// some other scenario silently, print nonsense, or panic in the engine.
func TestParseRun(t *testing.T) {
	for _, tc := range []struct {
		mode, proto, pattern string
		clients              int
		rate, speed          float64
		wantErr              string // substring; "" = accepted
	}{
		{"wgtt", "udp", "following", 1, 50, 15, ""},
		{"baseline", "tcp", "opposing", 3, 50, 15, ""},
		{"wgtt", "udp", "parallel", 1, 50, 0, ""},  // a parked single client is Fig. 13's 0 mph point
		{"wgtt", "tcp", "following", 2, 0, 15, ""}, // TCP ignores -rate
		{"basline", "udp", "following", 1, 50, 15, "-mode"},
		{"wgtt", "tpc", "following", 1, 50, 15, "-proto"},
		{"wgtt", "udp", "oposing", 2, 50, 15, "-pattern"},
		{"wgtt", "udp", "following", 0, 50, 15, "-clients"},
		{"wgtt", "udp", "following", 4, 50, 15, "-clients"},
		{"wgtt", "udp", "following", 1, 0, 15, "-rate"},
		{"wgtt", "udp", "following", 1, -5, 15, "-rate"},
		{"wgtt", "udp", "following", 2, 50, 0, "-speed"},
		{"wgtt", "udp", "following", 3, 50, -1, "-speed"},
	} {
		mode, tcp, pat, err := parseRun(tc.mode, tc.proto, tc.pattern, tc.clients, tc.rate, tc.speed)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%+v: error %v, want one naming %s", tc, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%+v: rejected: %v", tc, err)
			continue
		}
		if (mode == core.ModeBaseline) != (tc.mode == "baseline") || tcp != (tc.proto == "tcp") || pat.String() != tc.pattern {
			t.Errorf("%+v: parsed as mode %v, tcp %v, pattern %v", tc, mode, tcp, pat)
		}
	}
}
