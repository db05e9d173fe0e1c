package urban

import (
	"math"

	"wgtt/internal/mobility"
)

// Street-canyon blockage (DESIGN.md §16). The grid's buildings fill every
// block, so radio visibility follows the streets: a link down a shared
// street is line-of-sight, a link that bends around one building corner
// loses cornerLossDB to diffraction, and a link that needs two corners is
// essentially dead. These are the textbook urban-microcell numbers
// (~15–30 dB per corner at 2.4 GHz) and they are what make rapid
// switching matter in a city — the moment a vehicle turns, its old AP
// drops behind a corner.
const (
	// corridorHalfM is the street corridor half-width: how far from the
	// grid line a point still counts as "on" that street. Covers the lane
	// offset, AP curb setback, and rider seat jitter.
	corridorHalfM = 9.0
	// cornerLossDB is the diffraction loss around one building corner.
	cornerLossDB = 25.0
)

// streets reports which grid lines the point sits on: the nearest
// east-west avenue row (onH) and north-south street column (onV), each
// within the corridor half-width. Intersection zones are on both.
func (g *Graph) streets(p mobility.Point) (row int, onH bool, col int, onV bool) {
	row = clampGrid(p.Y, g.BlockM, g.Rows)
	col = clampGrid(p.X, g.BlockM, g.Cols)
	onH = math.Abs(p.Y-float64(row)*g.BlockM) <= corridorHalfM
	onV = math.Abs(p.X-float64(col)*g.BlockM) <= corridorHalfM
	return
}

func clampGrid(v, blockM float64, n int) int {
	i := int(v/blockM + 0.5)
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// BlockageDB returns the street-canyon obstruction between two positions
// on the map: 0 dB when they share a street, one corner loss when their
// streets cross, two when the path must bend twice. Symmetric and pure,
// so it plugs directly into radio.Params.Obstruction without breaking
// channel reciprocity. Allocation-free: it runs inside every SNR sample.
func (g *Graph) BlockageDB(a, b mobility.Point) float64 {
	ar, aH, ac, aV := g.streets(a)
	br, bH, bc, bV := g.streets(b)
	// Shared street: line-of-sight down the canyon.
	if (aH && bH && ar == br) || (aV && bV && ac == bc) {
		return 0
	}
	// Crossing streets: one corner between them.
	if (aH && bV) || (aV && bH) {
		return cornerLossDB
	}
	// Parallel streets (or an off-grid point): at least two corners.
	return 2 * cornerLossDB
}
