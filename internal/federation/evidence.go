package federation

import "math"

// QuantizeEvidenceDB converts a dB figure to the 0.25 dB wire quantization
// used by the handoff evidence fields (packet.APESNR.QuantizedDB and
// DomainHandoffOffer.EvidenceQ). Exported for the metro's cell-to-cell
// evidence transfer, which marshals real handoff packets between cell
// simulations (DESIGN.md §17).
func QuantizeEvidenceDB(db float64) int16 {
	q := math.Round(db * 4)
	if q > math.MaxInt16 {
		q = math.MaxInt16
	}
	if q < math.MinInt16 {
		q = math.MinInt16
	}
	return int16(q)
}

// DequantizeEvidenceDB is the inverse of QuantizeEvidenceDB.
func DequantizeEvidenceDB(q int16) float64 { return float64(q) / 4 }
