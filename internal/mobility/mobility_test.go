package mobility

import (
	"math"
	"testing"
	"testing/quick"

	"wgtt/internal/sim"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPointOps(t *testing.T) {
	p := Point{3, 4}
	if d := p.Distance(Point{0, 0}); d != 5 {
		t.Errorf("Distance = %v, want 5", d)
	}
	if q := p.Add(Point{1, 1}).Sub(Point{1, 1}); q != p {
		t.Errorf("Add/Sub roundtrip = %v, want %v", q, p)
	}
	if q := p.Scale(2); q != (Point{6, 8}) {
		t.Errorf("Scale = %v", q)
	}
	if a := (Point{0, 0}).AngleTo(Point{0, 1}); !almostEqual(a, math.Pi/2, 1e-12) {
		t.Errorf("AngleTo = %v, want π/2", a)
	}
}

func TestMPHConversion(t *testing.T) {
	if !almostEqual(MPH(25), 11.176, 1e-9) {
		t.Errorf("MPH(25) = %v", MPH(25))
	}
}

func TestStationary(t *testing.T) {
	s := Stationary{At: Point{1, 2}}
	if s.Position(5*sim.Second) != (Point{1, 2}) {
		t.Error("stationary moved")
	}
}

func TestLinearDrive(t *testing.T) {
	d := DriveBy(0, 0, 25) // 25 mph = 11.176 m/s along +X
	p := d.Position(sim.Second)
	if !almostEqual(p.X, 11.176, 1e-9) || p.Y != 0 {
		t.Errorf("Position(1s) = %v", p)
	}
}

func TestLinearDriveDepart(t *testing.T) {
	d := DriveBy(10, 0, 10)
	d.Depart = 2 * sim.Second
	if d.Position(sim.Second).X != 10 {
		t.Error("moved before departure")
	}
	want := 10 + MPH(10)*3
	if got := d.Position(5 * sim.Second).X; !almostEqual(got, want, 1e-9) {
		t.Errorf("Position(5s).X = %v, want %v", got, want)
	}
}

func TestLinearDriveDuration(t *testing.T) {
	d := DriveBy(0, 0, 10)
	d.Duration = 2 * sim.Second
	end := d.Position(2 * sim.Second)
	if got := d.Position(10 * sim.Second); got != end {
		t.Errorf("drive kept moving after Duration: %v != %v", got, end)
	}
}

func TestWaypointTrace(t *testing.T) {
	w, err := NewWaypointTrace([]Waypoint{
		{At: 0, Pos: Point{0, 0}},
		{At: 2 * sim.Second, Pos: Point{20, 0}},
		{At: 4 * sim.Second, Pos: Point{20, 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Position(sim.Second); !almostEqual(got.X, 10, 1e-9) {
		t.Errorf("midpoint = %v", got)
	}
	if got := w.Position(10 * sim.Second); got != (Point{20, 10}) {
		t.Errorf("after last waypoint = %v", got)
	}
	if got := w.Position(-sim.Second); got != (Point{0, 0}) {
		t.Errorf("before first waypoint = %v", got)
	}
	if got := w.Position(3 * sim.Second); !almostEqual(got.X, 20, 1e-9) || !almostEqual(got.Y, 5, 1e-9) {
		t.Errorf("second-leg midpoint = %v, want (20,5)", got)
	}
}

func TestWaypointTraceErrors(t *testing.T) {
	if _, err := NewWaypointTrace(nil); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := NewWaypointTrace([]Waypoint{
		{At: sim.Second}, {At: 0},
	}); err == nil {
		t.Error("unsorted trace accepted")
	}
	// Same time, different positions: a teleport has no finite velocity.
	if _, err := NewWaypointTrace([]Waypoint{
		{At: sim.Second, Pos: Point{0, 0}}, {At: sim.Second, Pos: Point{5, 0}},
	}); err == nil {
		t.Error("teleport trace accepted")
	}
}

// Zero-duration segments (duplicate time, same position) are produced by
// route builders whose dwell at a node rounds to zero — they must be
// coalesced, never interpolated into a division by zero.
func TestWaypointZeroDurationSegment(t *testing.T) {
	w, err := NewWaypointTrace([]Waypoint{
		{At: 0, Pos: Point{0, 0}},
		{At: 2 * sim.Second, Pos: Point{20, 0}},
		{At: 2 * sim.Second, Pos: Point{20, 0}}, // zero-duration dwell
		{At: 4 * sim.Second, Pos: Point{20, 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []sim.Time{0, sim.Second, 2 * sim.Second,
		2*sim.Second + sim.Millisecond, 3 * sim.Second, 4 * sim.Second, 5 * sim.Second} {
		p := w.Position(at)
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			t.Fatalf("t=%v: non-finite position %v", at, p)
		}
	}
	// Just past the coalesced point the client is on the next leg.
	if p := w.Position(2*sim.Second + 200*sim.Millisecond); !almostEqual(p.X, 20, 1e-9) || !almostEqual(p.Y, 1, 1e-9) {
		t.Errorf("position past coalesced waypoint = %v, want (20,1)", p)
	}
}

func TestDefaultAPPositions(t *testing.T) {
	aps := DefaultAPPositions()
	if len(aps) != 8 {
		t.Fatalf("got %d APs, want 8", len(aps))
	}
	for i, p := range aps {
		if p.Y != APSetback {
			t.Errorf("AP%d setback = %v", i+1, p.Y)
		}
		if i > 0 && p.X <= aps[i-1].X {
			t.Errorf("AP positions not increasing at %d", i)
		}
	}
	// Dense segment spacing is tighter than sparse segment spacing.
	dense := aps[2].X - aps[1].X
	sparse := aps[5].X - aps[4].X
	if dense >= sparse {
		t.Errorf("dense spacing %v not < sparse spacing %v", dense, sparse)
	}
}

func TestArraySpanAndTransit(t *testing.T) {
	aps := DefaultAPPositions()
	minX, maxX := ArraySpan(aps)
	if minX != 5 || maxX != 70 {
		t.Errorf("span = [%v, %v]", minX, maxX)
	}
	d := TransitDrive(aps, 15, 10)
	if d.Position(0).X != minX-10 {
		t.Errorf("transit start = %v", d.Position(0))
	}
	dur := TransitDuration(aps, 15, 10)
	// 85 m at 6.7056 m/s ≈ 12.68 s
	if !almostEqual(dur.Seconds(), 85/MPH(15), 1e-9) {
		t.Errorf("TransitDuration = %v", dur)
	}
	if gotMin, gotMax := ArraySpan(nil); gotMin != 0 || gotMax != 0 {
		t.Error("empty span not zero")
	}
}

func TestPatternFollowing(t *testing.T) {
	aps := DefaultAPPositions()
	traces := PatternTraces(Following, 2, aps, 15, 10)
	if len(traces) != 2 {
		t.Fatal("wrong trace count")
	}
	p0 := traces[0].Position(sim.Second)
	p1 := traces[1].Position(sim.Second)
	if !almostEqual(p0.X-p1.X, FollowSpacing, 1e-9) {
		t.Errorf("following gap = %v, want %v", p0.X-p1.X, FollowSpacing)
	}
	if p0.Y != p1.Y {
		t.Error("following cars should share a lane")
	}
}

func TestPatternParallel(t *testing.T) {
	traces := PatternTraces(Parallel, 2, DefaultAPPositions(), 15, 10)
	p0 := traces[0].Position(sim.Second)
	p1 := traces[1].Position(sim.Second)
	if p0.X != p1.X {
		t.Error("parallel cars should be side by side")
	}
	if p0.Y == p1.Y {
		t.Error("parallel cars should use different lanes")
	}
}

func TestPatternOpposing(t *testing.T) {
	traces := PatternTraces(Opposing, 2, DefaultAPPositions(), 15, 10)
	// They should pass each other somewhere mid-array.
	d0 := traces[0].Position(5 * sim.Second)
	d1 := traces[1].Position(5 * sim.Second)
	if d0.X <= traces[0].Position(0).X || d1.X >= traces[1].Position(0).X {
		t.Error("opposing cars not converging")
	}
}

func TestPatternString(t *testing.T) {
	if Following.String() != "following" || Parallel.String() != "parallel" ||
		Opposing.String() != "opposing" || Pattern(99).String() != "unknown" {
		t.Error("Pattern.String mismatch")
	}
}

// Property: linear drives advance monotonically in X for positive velocity.
func TestLinearDriveMonotonic(t *testing.T) {
	f := func(speedQ uint8, t1q, t2q uint16) bool {
		speed := 1 + float64(speedQ%40)
		d := DriveBy(0, 0, speed)
		t1 := sim.Time(t1q) * sim.Millisecond
		t2 := sim.Time(t2q) * sim.Millisecond
		if t2 < t1 {
			t1, t2 = t2, t1
		}
		return d.Position(t2).X >= d.Position(t1).X
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDenseArray(t *testing.T) {
	pts := DenseArray(16, 5, 7.5)
	if len(pts) != 16 {
		t.Fatal("count wrong")
	}
	if pts[0].X != 5 || pts[15].X != 5+15*7.5 {
		t.Errorf("span = %v..%v", pts[0].X, pts[15].X)
	}
	for _, p := range pts {
		if p.Y != APSetback {
			t.Error("setback wrong")
		}
	}
}

func TestClipWindowsTrace(t *testing.T) {
	inner := &LinearDrive{Start: Point{X: 0}, Vel: Point{X: 10}}
	c := Clip{Inner: inner, From: sim.FromSeconds(1), To: sim.FromSeconds(3)}
	// Before the window: parked at the From-time position.
	if got := c.Position(0); got != inner.Position(sim.FromSeconds(1)) {
		t.Fatalf("pre-window position = %v, want frozen at From", got)
	}
	// Inside: passes through.
	mid := sim.FromSeconds(2)
	if c.Position(mid) != inner.Position(mid) {
		t.Fatal("in-window samples must match the inner trace")
	}
	// After: parked at the To-time position.
	if got := c.Position(sim.FromSeconds(9)); got != inner.Position(sim.FromSeconds(3)) {
		t.Fatalf("post-window position = %v, want frozen at To", got)
	}
}
