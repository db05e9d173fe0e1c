package runtime

import (
	"testing"
	"time"

	"wgtt/internal/sim"
)

// run starts w's loop and returns a channel closed when Run returns.
func run(w *Wall) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		w.Run()
		close(done)
	}()
	return done
}

// await fails the test unless done closes within five seconds.
func await(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal(what)
	}
}

// Posts made together run in the order they were made — the simulator's
// same-instant FIFO tiebreak, preserved on the live substrate.
func TestWallFIFOAtSameInstant(t *testing.T) {
	w := NewWall()
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		w.Post(func() { order = append(order, i) })
	}
	w.Post(w.Stop)
	await(t, run(w), "wall never dispatched")
	if len(order) != 8 {
		t.Fatalf("ran %d of 8 posts", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("dispatch order = %v, want ascending", order)
		}
	}
}

// An engine timer fires no earlier than its real delay, and inside the
// callback Now is the event's due time.
func TestWallDelaysElapse(t *testing.T) {
	w := NewWall()
	var now sim.Time
	var real time.Duration
	begin := time.Now()
	w.Eng.After(20*sim.Millisecond, func() {
		now, real = w.Eng.Now(), time.Since(begin)
		w.Stop()
	})
	await(t, run(w), "timer never fired")
	if real < 20*time.Millisecond {
		t.Errorf("fired after %v of wall time, before its 20ms deadline", real)
	}
	if now != 20*sim.Millisecond {
		t.Errorf("Now = %v inside the callback, want its 20ms due time", now)
	}
}

// A timer armed by a post, earlier than the one the loop is sleeping
// toward, must preempt that sleep.
func TestWallEarlierTimerPreemptsSleep(t *testing.T) {
	w := NewWall()
	var order []string
	w.Eng.After(200*sim.Millisecond, func() {
		order = append(order, "late")
		w.Stop()
	})
	done := run(w)
	time.Sleep(5 * time.Millisecond) // let the loop start sleeping toward 200ms
	w.Post(func() {
		w.Eng.After(10*sim.Millisecond, func() { order = append(order, "early") })
	})
	await(t, done, "run loop stalled")
	if len(order) != 2 || order[0] != "early" {
		t.Errorf("order = %v, want early before late", order)
	}
}

// Post must be callable concurrently from many goroutines (the UDP receive
// path does this) without losing callbacks or the timers they arm.
func TestWallConcurrentAfter(t *testing.T) {
	w := NewWall()
	const n = 64
	fired := make(chan struct{}, n)
	done := run(w)
	for i := 0; i < n; i++ {
		go w.Post(func() {
			w.Eng.After(sim.Millisecond, func() { fired <- struct{}{} })
		})
	}
	for i := 0; i < n; i++ {
		select {
		case <-fired:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d/%d callbacks ran", i, n)
		}
	}
	w.Stop()
	await(t, done, "Stop did not end Run")
}

// Stop called from a callback ends Run without waiting for the events
// still queued.
func TestWallStopFromCallback(t *testing.T) {
	w := NewWall()
	ran := false
	w.Post(w.Stop)
	w.Eng.After(3600*sim.Second, func() { ran = true })
	await(t, run(w), "Stop from a callback did not end Run")
	if ran {
		t.Error("an event an hour out ran")
	}
}
