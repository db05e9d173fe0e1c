package urban

import (
	"reflect"
	"testing"

	"wgtt/internal/mobility"
)

func TestTileBoundaries(t *testing.T) {
	g, err := NewGrid(3, 3, 60, 1) // span 120×120
	if err != nil {
		t.Fatal(err)
	}
	til := Tiling{Rows: 2, Cols: 2}
	p := func(x, y float64) mobility.Point { return mobility.Point{X: x, Y: y} }
	cases := []struct {
		name string
		pos  mobility.Point
		want int
	}{
		{"origin", p(0, 0), 0},
		{"interior boundary x goes to higher tile", p(60, 10), 1},
		{"interior boundary y goes to higher tile", p(10, 60), 2},
		{"both boundaries", p(60, 60), 3},
		{"just inside lower tile", p(59.999, 10), 0},
		{"outer border clamps", p(120, 120), 3},
		{"beyond the city clamps", p(-40, 500), 2},
	}
	for _, c := range cases {
		if got := g.Tile(c.pos, til); got != c.want {
			t.Errorf("%s: Tile(%v) = %d, want %d", c.name, c.pos, got, c.want)
		}
	}
}

func TestTileSingleDegenerate(t *testing.T) {
	g, err := NewGrid(2, 2, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-100, 0, 30, 60, 1e6} {
		if got := g.Tile(mobility.Point{X: x, Y: x}, Tiling{Rows: 1, Cols: 1}); got != 0 {
			t.Fatalf("1x1 Tile(x=%g) = %d, want 0", x, got)
		}
	}
}

func TestTileNonDivisibleWidths(t *testing.T) {
	// 4×4 grid, span 180: 3 columns of width 60 — but 2 rows of height 90,
	// and a 7-column split gives irrational-ish widths. The mapping must
	// still be total and consistent with the tile bounds.
	g, err := NewGrid(4, 4, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	til := Tiling{Rows: 2, Cols: 7}
	w, h := g.Span()
	for xi := 0; xi <= 40; xi++ {
		for yi := 0; yi <= 40; yi++ {
			pos := mobility.Point{X: w * float64(xi) / 40, Y: h * float64(yi) / 40}
			tile := g.Tile(pos, til)
			if tile < 0 || tile >= til.N() {
				t.Fatalf("Tile(%v) = %d out of [0,%d)", pos, tile, til.N())
			}
			// The tile's rectangle is the half-open box [x0, x1) × [y0, y1),
			// with outer-border clamping: interior positions must sit inside
			// [lo, hi); border tiles own everything beyond the span.
			tw, th := w/float64(til.Cols), h/float64(til.Rows)
			r, c := tile/til.Cols, tile%til.Cols
			x0, y0, x1, y1 := float64(c)*tw, float64(r)*th, float64(c+1)*tw, float64(r+1)*th
			if pos.X < x0 && tile%til.Cols != 0 {
				t.Fatalf("Tile(%v) = %d but x < x0=%g", pos, tile, x0)
			}
			if pos.X >= x1 && tile%til.Cols != til.Cols-1 {
				t.Fatalf("Tile(%v) = %d but x >= x1=%g", pos, tile, x1)
			}
			if pos.Y < y0 && tile/til.Cols != 0 {
				t.Fatalf("Tile(%v) = %d but y < y0=%g", pos, tile, y0)
			}
			if pos.Y >= y1 && tile/til.Cols != til.Rows-1 {
				t.Fatalf("Tile(%v) = %d but y >= y1=%g", pos, tile, y1)
			}
		}
	}
}

func TestBuildMetroPlanDeterministic(t *testing.T) {
	cfg := DefaultMetroConfig()
	a, err := BuildMetroPlan(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildMetroPlan(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.APTile, b.APTile) {
		t.Fatal("AP→tile binding differs between identical builds")
	}
	if len(a.Clients) != len(b.Clients) || a.Crossings != b.Crossings {
		t.Fatalf("client/crossing counts differ: %d/%d vs %d/%d",
			len(a.Clients), a.Crossings, len(b.Clients), b.Crossings)
	}
	for i := range a.Clients {
		if !reflect.DeepEqual(a.Clients[i].Visits, b.Clients[i].Visits) {
			t.Fatalf("client %d visit schedule differs between identical builds", i)
		}
	}
}

func TestBuildMetroPlanVisits(t *testing.T) {
	p, err := BuildMetroPlan(DefaultMetroConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if p.Crossings == 0 {
		t.Fatal("default metro routes no one across a tile seam")
	}
	for t2, aps := range p.TileAPs {
		if len(aps) == 0 {
			t.Fatalf("tile %d owns no APs", t2)
		}
	}
	for i, c := range p.Clients {
		vs := c.Visits
		if len(vs) == 0 {
			t.Fatalf("client %d has no visits", i)
		}
		if vs[0].Enter != 0 || vs[len(vs)-1].Exit != p.Duration() {
			t.Fatalf("client %d visits do not span [0, horizon]: %+v", i, vs)
		}
		for k := 1; k < len(vs); k++ {
			if vs[k].Enter != vs[k-1].Exit {
				t.Fatalf("client %d visit %d not contiguous: %+v", i, k, vs)
			}
			if vs[k].Tile == vs[k-1].Tile {
				t.Fatalf("client %d visit %d does not change tile: %+v", i, k, vs)
			}
			if vs[k].Enter%visitStep != 0 {
				t.Fatalf("client %d crossing at %v not on the visit step", i, vs[k].Enter)
			}
		}
		for _, v := range vs {
			if v.Exit <= v.Enter {
				t.Fatalf("client %d empty visit %+v", i, v)
			}
			if v.Tile < 0 || v.Tile >= p.Cfg.Tiles.N() {
				t.Fatalf("client %d visit tile %d out of range", i, v.Tile)
			}
		}
	}
}

func TestMetroConfigValidate(t *testing.T) {
	bad := DefaultMetroConfig()
	bad.Tiles = Tiling{}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero tiling accepted")
	}
	bad = DefaultMetroConfig()
	bad.City.Domains = 2
	if err := bad.Validate(); err == nil {
		t.Fatal("multi-domain metro city accepted")
	}
	// A tiling finer than the AP layout must be rejected at build time.
	sparse := DefaultMetroConfig()
	sparse.Tiles = Tiling{Rows: 40, Cols: 40}
	if _, err := BuildMetroPlan(sparse, 1); err == nil {
		t.Fatal("metro with AP-less tiles accepted")
	}
}

func TestParseTiling(t *testing.T) {
	good := map[string]Tiling{
		"2x2":   {Rows: 2, Cols: 2},
		"32x32": {Rows: 32, Cols: 32},
		" 1x8 ": {Rows: 1, Cols: 8},
	}
	for in, want := range good {
		got, err := ParseTiling(in)
		if err != nil || got != want {
			t.Errorf("ParseTiling(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "2", "2x", "x2", "0x2", "2x-1", "axb", "2x2x2"} {
		if _, err := ParseTiling(in); err == nil {
			t.Errorf("ParseTiling(%q) accepted a malformed spec", in)
		}
	}
}

// A tile grid no city can fill must fail with an error, not a panic or an
// out-of-memory: 2^62×4 overflows the tile count, 100000×100000 would size
// a 10^10-entry table before the every-tile-owns-an-AP check.
func TestHugeTilingsRejected(t *testing.T) {
	if _, err := ParseTiling("4611686018427387904x4"); err == nil {
		t.Error("ParseTiling accepted a tiling whose tile count overflows")
	}
	if (Tiling{Rows: 1 << 62, Cols: 4}).Valid() {
		t.Error("Valid accepted a tiling whose tile count overflows")
	}
	huge, err := ParseTiling("100000x100000")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultMetroConfig()
	cfg.Tiles = huge
	if _, err := BuildMetroPlan(cfg, 1); err == nil {
		t.Fatal("metro with more tiles than AP sites accepted")
	}
}

// FuzzParseTiling: no spec panics the parser, and an accepted one is a
// valid tiling whose tile count does not overflow and which round-trips
// through String.
func FuzzParseTiling(f *testing.F) {
	for _, s := range []string{"2x2", " 32x32 ", "+2x2", "0x3", "2x", "x", "2x3x4",
		"4611686018427387904x4", "100000x100000"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		til, err := ParseTiling(s)
		if err != nil {
			return
		}
		if !til.Valid() || til.N()/til.Rows != til.Cols {
			t.Fatalf("ParseTiling(%q) = %v: invalid or overflowing tile count %d", s, til, til.N())
		}
		if again, err := ParseTiling(til.String()); err != nil || again != til {
			t.Fatalf("ParseTiling(%q) = %v, but its String %q parses to %v, %v", s, til, til.String(), again, err)
		}
	})
}
