package sim

import (
	"testing"
	"testing/quick"
)

// pending counts the live (non-cancelled) events still queued.
func pending(e *Engine) int { return len(e.heap) - e.ncancelled }

func TestTimeUnits(t *testing.T) {
	if Second != 1e9 {
		t.Fatalf("Second = %d, want 1e9", int64(Second))
	}
	if got := (2500 * Millisecond).Seconds(); got != 2.5 {
		t.Errorf("Seconds() = %v, want 2.5", got)
	}
	if got := (3 * Millisecond).Milliseconds(); got != 3 {
		t.Errorf("Milliseconds() = %v, want 3", got)
	}
	if got := (7 * Microsecond).Microseconds(); got != 7 {
		t.Errorf("Microseconds() = %v, want 7", got)
	}
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v, want 1.5s", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{2 * Second, "2s"},
		{12500 * Microsecond, "12.5ms"},
		{3 * Microsecond, "3us"},
		{17, "17ns"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30*Millisecond, func() { order = append(order, 3) })
	e.At(10*Millisecond, func() { order = append(order, 1) })
	e.At(20*Millisecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if e.Now() != 30*Millisecond {
		t.Errorf("Now() = %v, want 30ms", e.Now())
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Millisecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.At(Millisecond, func() {
		times = append(times, e.Now())
		e.After(2*Millisecond, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != Millisecond || times[1] != 3*Millisecond {
		t.Fatalf("nested scheduling times = %v", times)
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(5*Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		e.At(Millisecond, func() {})
	})
	e.Run()
}

func TestEngineNilFnPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("nil fn did not panic")
		}
	}()
	e.At(0, nil)
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-Millisecond, func() {})
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.At(Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Error("Stop() should report true on an active timer")
	}
	if tm.Stop() {
		t.Error("second Stop() should report false")
	}
	e.Run()
	if fired {
		t.Error("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	e := NewEngine()
	tm := e.At(Millisecond, func() {})
	e.Run()
	if tm.Stop() {
		t.Error("Stop() after fire should report false")
	}
}

func TestZeroTimer(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Error("zero timer should be inert")
	}
}

// A Timer handle must go stale once its arena slot is recycled by a later
// event: stopping the old handle must not cancel the new occupant.
func TestTimerStaleHandle(t *testing.T) {
	e := NewEngine()
	old := e.At(Millisecond, func() {})
	e.Run() // fires and recycles the slot
	fired := false
	e.At(2*Millisecond, func() { fired = true })
	if old.Stop() {
		t.Error("stale handle Stop() reported true")
	}
	e.Run()
	if !fired {
		t.Error("stale handle cancelled the slot's new occupant")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{Millisecond, 2 * Millisecond, 5 * Millisecond} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(3 * Millisecond)
	if len(fired) != 2 {
		t.Fatalf("fired %d events before deadline, want 2", len(fired))
	}
	if e.Now() != 3*Millisecond {
		t.Errorf("Now() = %v, want exactly the deadline", e.Now())
	}
	if pending(e) != 1 {
		t.Errorf("pending = %d, want 1", pending(e))
	}
	e.Run()
	if len(fired) != 3 {
		t.Errorf("remaining event did not fire after deadline")
	}
}

// Regression: a cancelled event at the queue head with at ≤ deadline must
// not license RunUntil to dispatch the next live event past the deadline.
func TestRunUntilCancelledHead(t *testing.T) {
	e := NewEngine()
	head := e.At(10*Millisecond, func() { t.Error("cancelled event fired") })
	lateFired := false
	e.At(50*Millisecond, func() { lateFired = true })
	head.Stop()
	e.RunUntil(20 * Millisecond)
	if lateFired {
		t.Error("RunUntil dispatched a live event scheduled after the deadline")
	}
	if e.Now() != 20*Millisecond {
		t.Errorf("Now() = %v, want exactly the 20ms deadline", e.Now())
	}
	if pending(e) != 1 {
		t.Errorf("pending = %d, want the post-deadline event still queued", pending(e))
	}
	e.Run()
	if !lateFired {
		t.Error("post-deadline event lost")
	}
}

// The heap must compact lazily-cancelled entries so keepalive-style
// arm/cancel churn cannot bloat the queue.
func TestEngineCancelCompaction(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	for i := 0; i < 100000; i++ {
		tm := e.After(Second, nop)
		tm.Stop()
	}
	if n := len(e.heap); n > 2*compactThreshold+2 {
		t.Errorf("heap holds %d entries after pure cancel churn; compaction broken", n)
	}
	if pending(e) != 0 {
		t.Errorf("pending = %d, want 0", pending(e))
	}
}

// Steady-state scheduling must not allocate: slots and heap capacity are
// reused once the engine has warmed up.
func TestEngineZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	var tick func()
	tick = func() {
		tm := e.After(30*Millisecond, nop)
		tm.Stop()
		e.After(Millisecond, tick)
	}
	e.After(Millisecond, tick)
	for i := 0; i < 1000; i++ { // warm arena, heap, and free list
		e.Step()
	}
	if avg := testing.AllocsPerRun(200, func() { e.Step() }); avg != 0 {
		t.Errorf("Engine.Step allocates %.1f times per event in steady state, want 0", avg)
	}
}

// Next is what the live pacer sleeps toward: it must skip a cancelled head
// without firing it or moving Now, and name the time Step then fires at.
func TestEngineNext(t *testing.T) {
	e := NewEngine()
	if at, ok := e.Next(); ok {
		t.Fatalf("Next on an empty queue = %v, true", at)
	}
	head := e.At(2*Millisecond, func() { t.Error("cancelled event fired") })
	var firedAt Time
	e.At(5*Millisecond, func() { firedAt = e.Now() })
	head.Stop()
	at, ok := e.Next()
	if !ok || at != 5*Millisecond {
		t.Fatalf("Next = %v, %v; want 5ms, true", at, ok)
	}
	if e.Now() != 0 || e.Fired() != 0 {
		t.Errorf("Next moved Now to %v or fired %d events", e.Now(), e.Fired())
	}
	if !e.Step() || firedAt != at {
		t.Errorf("Step fired at %v, Next reported %v", firedAt, at)
	}
	if _, ok := e.Next(); ok {
		t.Error("Next reports an event after the queue drained")
	}
}

func TestEngineStepEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Error("Step() on empty queue should report false")
	}
}

func TestEngineFiredCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.At(Time(i)*Millisecond, func() {})
	}
	tm := e.At(10*Millisecond, func() {})
	tm.Stop()
	e.Run()
	if e.Fired() != 5 {
		t.Errorf("Fired() = %d, want 5 (cancelled events don't count)", e.Fired())
	}
}

// Property: for any set of (bounded, non-negative) event offsets, the engine
// dispatches them in sorted order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, off := range offsets {
			at := Time(off) * Microsecond
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42).Stream("fading/ap1")
	b := NewRNG(42).Stream("fading/ap1")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same (seed, name) produced different streams")
		}
	}
}

func TestRNGIndependentStreams(t *testing.T) {
	r := NewRNG(42)
	a := r.Stream("fading/ap1")
	b := r.Stream("fading/ap2")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams with different names coincided %d/100 times", same)
	}
}

func TestRNGSeedMatters(t *testing.T) {
	a := NewRNG(1).Stream("x")
	b := NewRNG(2).Stream("x")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds coincided %d/100 times", same)
	}
}
