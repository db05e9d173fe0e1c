package runtime

import (
	"sync"
	"testing"
	"time"

	"wgtt/internal/sim"
)

// The virtual clock must be a transparent view of the engine: same clock,
// same ordering, pass-through timers.
func TestVirtualDelegatesToEngine(t *testing.T) {
	eng := sim.NewEngine()
	clk := Virtual(eng)
	if clk.Now() != 0 {
		t.Fatalf("Now = %v at start", clk.Now())
	}
	var order []int
	clk.After(2*sim.Millisecond, func() { order = append(order, 2) })
	clk.After(sim.Millisecond, func() { order = append(order, 1) })
	tm := clk.After(3*sim.Millisecond, func() { order = append(order, 3) })
	if !tm.Stop() {
		t.Error("Stop on armed timer reported false")
	}
	eng.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("order = %v, want [1 2]", order)
	}
	if eng.Now() != 2*sim.Millisecond {
		t.Errorf("engine advanced to %v", eng.Now())
	}
}

// Same-instant callbacks on the wall clock must fire in scheduling order —
// the simulator's FIFO tiebreak, preserved on the live substrate.
func TestWallFIFOAtSameInstant(t *testing.T) {
	w := NewWall()
	var mu sync.Mutex
	var order []int
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		i := i
		w.After(0, func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	w.After(sim.Millisecond, func() {
		close(done)
		w.Stop()
	})
	go w.Run()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("wall clock never dispatched")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, got := range order {
		if got != i {
			t.Fatalf("dispatch order = %v, want ascending", order)
		}
	}
}

// Timers must honour real delays (coarsely — CI schedulers jitter) and
// deliver Now() values consistent with those delays.
func TestWallDelaysElapse(t *testing.T) {
	w := NewWall()
	var at sim.Time
	done := make(chan struct{})
	w.After(20*sim.Millisecond, func() {
		at = w.Now()
		close(done)
		w.Stop()
	})
	go w.Run()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
	if at < 20*sim.Millisecond {
		t.Errorf("fired at %v, before its 20ms deadline", at)
	}
}

// Stop on a pending wall timer must prevent the callback; a second Stop
// reports false.
func TestWallTimerStop(t *testing.T) {
	w := NewWall()
	fired := make(chan struct{}, 1)
	tm := w.After(30*sim.Millisecond, func() { fired <- struct{}{} })
	if !tm.Stop() {
		t.Error("first Stop reported false")
	}
	if tm.Stop() {
		t.Error("second Stop reported true")
	}
	done := make(chan struct{})
	w.After(60*sim.Millisecond, func() {
		close(done)
		w.Stop()
	})
	go w.Run()
	<-done
	select {
	case <-fired:
		t.Error("cancelled timer fired")
	default:
	}
}

// A timer armed earlier than the one the run loop is sleeping toward must
// preempt that sleep — the wake-on-new-head path.
func TestWallEarlierTimerPreemptsSleep(t *testing.T) {
	w := NewWall()
	var mu sync.Mutex
	var order []string
	done := make(chan struct{})
	go w.Run()
	w.After(200*sim.Millisecond, func() {
		mu.Lock()
		order = append(order, "late")
		mu.Unlock()
		close(done)
		w.Stop()
	})
	time.Sleep(5 * time.Millisecond) // let the loop start sleeping toward 200ms
	w.After(10*sim.Millisecond, func() {
		mu.Lock()
		order = append(order, "early")
		mu.Unlock()
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("run loop stalled")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "early" {
		t.Errorf("order = %v, want early before late", order)
	}
}

// After must be callable concurrently from many goroutines (the UDP receive
// path does this) without losing callbacks.
func TestWallConcurrentAfter(t *testing.T) {
	w := NewWall()
	const n = 64
	var mu sync.Mutex
	seen := 0
	var wg sync.WaitGroup
	go w.Run()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.After(sim.Millisecond, func() {
				mu.Lock()
				seen++
				mu.Unlock()
			})
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		got := seen
		mu.Unlock()
		if got == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d callbacks ran", got, n)
		}
		time.Sleep(time.Millisecond)
	}
	w.Stop()
}
