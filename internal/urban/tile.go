package urban

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"wgtt/internal/mobility"
)

// Tiling cuts a city into an R×C grid of rectangular metro cells
// (DESIGN.md §17). A tiling with Rows == 1 is the vertical slab split that
// binds APs to federation domains (BuildPlan), and every position in the
// plane maps to exactly one tile (the partition is total — positions
// outside the city clamp to the nearest border tile).
type Tiling struct {
	Rows, Cols int
}

// N returns the tile count.
func (t Tiling) N() int { return t.Rows * t.Cols }

// Valid reports whether the tiling has at least one tile in each axis and a
// tile count N can represent.
func (t Tiling) Valid() bool {
	return t.Rows >= 1 && t.Cols >= 1 && t.Rows <= math.MaxInt/t.Cols
}

// String renders the tiling as "RxC".
func (t Tiling) String() string { return fmt.Sprintf("%dx%d", t.Rows, t.Cols) }

// ParseTiling parses a "RxC" tiling spec (as String renders it), e.g.
// "2x2" or "32x32".
func ParseTiling(s string) (Tiling, error) {
	r, c, ok := strings.Cut(strings.TrimSpace(s), "x")
	if !ok {
		return Tiling{}, fmt.Errorf("urban: tiling %q is not of the form RxC", s)
	}
	rows, err1 := strconv.Atoi(r)
	cols, err2 := strconv.Atoi(c)
	if err1 != nil || err2 != nil || !(Tiling{Rows: rows, Cols: cols}).Valid() {
		return Tiling{}, fmt.Errorf("urban: tiling %q needs positive RxC dimensions whose product fits in an int", s)
	}
	return Tiling{Rows: rows, Cols: cols}, nil
}

// Span returns the city's geographic extent: the bounding box of the
// intersection grid, anchored at the origin.
func (g *Graph) Span() (w, h float64) {
	return float64(g.Cols-1) * g.BlockM, float64(g.Rows-1) * g.BlockM
}

// Tile maps a position to its tile index under t, row-major (tile (r, c)
// has index r·Cols + c). Tiles split the city span into equal rectangles;
// a position exactly on an interior boundary belongs to the higher tile,
// positions on or beyond the outer border clamp inward, so the mapping is
// total and a pure function of (graph shape, tiling, position) — the
// determinism anchor for the metro's migration schedule.
func (g *Graph) Tile(p mobility.Point, t Tiling) int {
	w, h := g.Span()
	return tileAxis(p.Y, h, t.Rows)*t.Cols + tileAxis(p.X, w, t.Cols)
}

// tileAxis is the 1-D cell index of coordinate v on an axis of extent span
// split into n equal cells, clamped to [0, n).
func tileAxis(v, span float64, n int) int {
	if n <= 1 {
		return 0
	}
	i := int(v / span * float64(n))
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}
