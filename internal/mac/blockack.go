package mac

// Block ACK helpers: the 64-wide compressed bitmap of 802.11n, used both by
// receivers (building the scoreboard to send back) and by senders (scoring
// delivered MPDUs, including from Block ACKs forwarded over the backhaul).

// BAWindow is the compressed Block ACK bitmap width.
const BAWindow = 64

// Sender-side A-MPDU limits, the same on APs and clients: the ath9k
// defaults the testbed ran with (§4.2) — at most 24 MPDUs and 48 KiB of
// payload per aggregate, and 7 retransmissions before an MPDU is dropped.
const (
	MaxAggregate      = 24
	MaxAggregateBytes = 48 * 1024
	RetryLimit        = 7
)

// seqOffset returns the position of seq relative to ssn in 12-bit circular
// space, and whether it falls inside the BA window.
func seqOffset(ssn, seq uint16) (int, bool) {
	off := int((seq - ssn) & 0xfff)
	return off, off < BAWindow
}

// BuildBitmap builds a compressed Block ACK bitmap acknowledging the given
// sequence numbers, relative to ssn. Sequences outside the 64-frame window
// are ignored.
func BuildBitmap(ssn uint16, seqs []uint16) uint64 {
	var bm uint64
	for _, s := range seqs {
		if off, ok := seqOffset(ssn, s); ok {
			bm |= 1 << off
		}
	}
	return bm
}

// BitmapAcks reports whether the bitmap acknowledges seq.
func BitmapAcks(ssn uint16, bitmap uint64, seq uint16) bool {
	off, ok := seqOffset(ssn, seq)
	return ok && bitmap&(1<<off) != 0
}
