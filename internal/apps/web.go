package apps

import (
	"math"

	"wgtt/internal/sim"
	"wgtt/internal/transport"
)

// pageBytes is the §5.4 page weight: the paper loads the eBay home page,
// 2.1 MB, from a local cache server.
const pageBytes = 2_100_000

// PageSegments is the page-load transfer length in TCP segments.
const PageSegments uint32 = (pageBytes + transport.DefaultMSS - 1) / transport.DefaultMSS

// PageLoadSeconds converts a completion timestamp into the paper's Table 5
// metric: seconds from start, or +Inf when the page never finished within
// the drive (the paper prints "∞").
func PageLoadSeconds(start, done sim.Time, completed bool) float64 {
	if !completed {
		return math.Inf(1)
	}
	return (done - start).Seconds()
}
