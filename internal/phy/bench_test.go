package phy

import "testing"

// BenchmarkInvBER measures the BER-curve inversion that closes every ESNR
// computation.
func BenchmarkInvBER(b *testing.B) {
	bers := [8]float64{1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2, 0.05, 0.2}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += QAM64.InvBER(bers[i&7])
	}
	_ = sink
}
