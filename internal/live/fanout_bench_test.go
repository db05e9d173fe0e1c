package live

import (
	"fmt"
	"testing"
)

// The real-socket half of the DESIGN.md §14 fan-out measurement, which
// bench/ (it opens no socket) cannot see: sustained copies per second over
// UDP loopback at 8/32/128-AP widths, one socket per AP.
//
//	go test -run '^$' -bench Fanout ./internal/live
func BenchmarkFanoutUDP(b *testing.B) {
	for _, aps := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("%daps", aps), func(b *testing.B) {
			r, err := MeasureFanout(aps, b.N)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.PktsPerSec, "pkts/s")
		})
	}
}
