package live

import (
	"fmt"
	"testing"
)

// The real-socket half of the DESIGN.md §14 fan-out measurement, which
// bench/ (it opens no socket) cannot see: sustained copies per second over
// UDP loopback at 8/32/128-AP widths. FanoutUDP is the batched path —
// encode once, one datagram per endpoint listing its targets;
// FanoutUDPPerCopy is a Send per copy, and the pkts/s ratio of the pair is
// the batching speedup.
//
//	go test -run '^$' -bench Fanout ./internal/live

func benchFanout(b *testing.B, batched bool) {
	for _, aps := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("%daps", aps), func(b *testing.B) {
			r, err := MeasureFanout(aps, b.N, batched)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.PktsPerSec, "pkts/s")
		})
	}
}

func BenchmarkFanoutUDP(b *testing.B)        { benchFanout(b, true) }
func BenchmarkFanoutUDPPerCopy(b *testing.B) { benchFanout(b, false) }
