package radio

import (
	"math/rand/v2"
	"testing"
)

func benchFader() *Fader {
	rnd := rand.New(rand.NewPCG(1, 2))
	return NewFader(nil, 8, 22, 1.5, rnd)
}

// BenchmarkFaderFlatGainDB is the wideband RSSI sample (baseline roaming,
// capture arbitration).
func BenchmarkFaderFlatGainDB(b *testing.B) {
	f := benchFader()
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += f.FlatGainDB(float64(i) * 1e-4)
	}
	_ = sink
}
