package urban

import (
	"fmt"
	"math"

	"wgtt/internal/mobility"
	"wgtt/internal/sim"
)

// Node is one intersection of the city graph.
type Node struct {
	ID  int
	Pos mobility.Point
}

// Edge is one street segment between two intersections. A < B always, but
// vehicles traverse edges in either direction.
type Edge struct {
	A, B int
	// SpeedMPH is the segment's speed limit; vehicles drive at
	// min(their design speed, the limit).
	SpeedMPH float64
	// Length is the segment length in meters (derived, cached).
	Length float64
	// Avenue marks the east–west segments (faster limits than the
	// north–south streets).
	Avenue bool
}

// Graph is a street-grid city: Rows×Cols intersections joined by
// street segments, the connected counterpart of the isolated corridors the
// fleet engine deploys (§7's "large area deployment" taken city-wide).
type Graph struct {
	Rows, Cols int
	BlockM     float64
	Nodes      []Node
	Edges      []Edge

	adj    [][]int        // node -> incident edge indices, ascending
	edgeAt map[[2]int]int // (min,max) node pair -> edge index
}

// NewGrid builds a Rows×Cols street grid with blockM-meter blocks. Node
// (r, c) sits at (c·blockM, r·blockM) and gets ID r·Cols+c. Per-edge speed
// limits are drawn from the named RNG streams of seed — avenues (east–west)
// from {25, 35} mph, streets (north–south) from {15, 25} mph — so the same
// (rows, cols, blockM, seed) always yields the same city.
func NewGrid(rows, cols int, blockM float64, seed uint64) (*Graph, error) {
	if rows < 2 || cols < 2 {
		return nil, fmt.Errorf("urban: grid needs at least 2x2 intersections, got %dx%d", rows, cols)
	}
	if blockM <= 0 {
		return nil, fmt.Errorf("urban: block length must be positive, got %g", blockM)
	}
	g := &Graph{Rows: rows, Cols: cols, BlockM: blockM, edgeAt: make(map[[2]int]int)}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.Nodes = append(g.Nodes, Node{
				ID:  r*cols + c,
				Pos: mobility.Point{X: float64(c) * blockM, Y: float64(r) * blockM},
			})
		}
	}
	rng := sim.NewRNG(seed)
	addEdge := func(a, b int, avenue bool) {
		i := len(g.Edges)
		st := rng.Stream(fmt.Sprintf("urban/edge/%d", i))
		var limit float64
		if avenue {
			limit = []float64{25, 35}[st.IntN(2)]
		} else {
			limit = []float64{15, 25}[st.IntN(2)]
		}
		g.Edges = append(g.Edges, Edge{
			A: a, B: b, SpeedMPH: limit, Avenue: avenue,
			Length: g.Nodes[a].Pos.Distance(g.Nodes[b].Pos),
		})
		g.edgeAt[[2]int{a, b}] = i
	}
	// Avenues first (row-major), then streets: edge order — and therefore
	// AP order — is a pure function of the grid shape.
	for r := 0; r < rows; r++ {
		for c := 0; c < cols-1; c++ {
			addEdge(r*cols+c, r*cols+c+1, true)
		}
	}
	for c := 0; c < cols; c++ {
		for r := 0; r < rows-1; r++ {
			addEdge(r*cols+c, (r+1)*cols+c, false)
		}
	}
	g.adj = make([][]int, len(g.Nodes))
	for i, e := range g.Edges {
		g.adj[e.A] = append(g.adj[e.A], i)
		g.adj[e.B] = append(g.adj[e.B], i)
	}
	return g, nil
}

// NodeAt returns the ID of the intersection at grid coordinates (r, c).
func (g *Graph) NodeAt(r, c int) int { return r*g.Cols + c }

// Degree returns how many street segments meet at node n.
func (g *Graph) Degree(n int) int { return len(g.adj[n]) }

// EdgeBetween returns the index of the segment joining a and b, or -1.
func (g *Graph) EdgeBetween(a, b int) int {
	if a > b {
		a, b = b, a
	}
	if i, ok := g.edgeAt[[2]int{a, b}]; ok {
		return i
	}
	return -1
}

// Other returns the far endpoint of edge e seen from node n.
func (e Edge) Other(n int) int {
	if e.A == n {
		return e.B
	}
	return e.A
}

// APSite is one access point placed along a street segment.
type APSite struct {
	Pos  mobility.Point
	Edge int
}

// PlaceAPs deploys APs along every street segment: evenly spaced about
// spacingM apart along the segment, offset setbackM meters to the left of
// the A→B direction (curbside small cells). Edge order makes AP order —
// and therefore AP IDs — deterministic.
func (g *Graph) PlaceAPs(spacingM, setbackM float64) []APSite {
	var sites []APSite
	for i, e := range g.Edges {
		n := int(e.Length / spacingM)
		if n < 1 {
			n = 1
		}
		a, b := g.Nodes[e.A].Pos, g.Nodes[e.B].Pos
		dir := b.Sub(a).Scale(1 / e.Length)
		normal := mobility.Point{X: -dir.Y, Y: dir.X}
		for k := 0; k < n; k++ {
			d := e.Length * (float64(k) + 0.5) / float64(n)
			sites = append(sites, APSite{
				Pos:  a.Add(dir.Scale(d)).Add(normal.Scale(setbackM)),
				Edge: i,
			})
		}
	}
	return sites
}

// ShortestPath returns the fastest node path from one intersection to
// another for a vehicle whose design speed is topMPH (per-edge travel time
// at min(topMPH, limit)). Dijkstra with lowest-node-index tie-breaking, so
// equal-cost grids route identically on every run.
func (g *Graph) ShortestPath(from, to int, topMPH float64) []int {
	n := len(g.Nodes)
	const inf = math.MaxFloat64
	dist := make([]float64, n)
	prev := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = inf
		prev[i] = -1
	}
	dist[from] = 0
	for {
		u, best := -1, inf
		for i := 0; i < n; i++ {
			if !done[i] && dist[i] < best {
				u, best = i, dist[i]
			}
		}
		if u == -1 || u == to {
			break
		}
		done[u] = true
		for _, ei := range g.adj[u] {
			e := g.Edges[ei]
			v := e.Other(u)
			speed := mobility.MPH(math.Min(topMPH, e.SpeedMPH))
			alt := dist[u] + e.Length/speed
			// Strict inequality keeps the lowest-index predecessor on ties.
			if alt < dist[v] {
				dist[v] = alt
				prev[v] = u
			}
		}
	}
	if dist[to] == inf {
		return nil
	}
	var rev []int
	for at := to; at != -1; at = prev[at] {
		rev = append(rev, at)
	}
	path := make([]int, len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = v
	}
	return path
}
