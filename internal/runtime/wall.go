package runtime

import (
	"container/heap"
	"sync"
	"time"

	"wgtt/internal/sim"
)

// Wall is the wall-clock Clock: the driver that runs the protocol cores in
// real time for live multi-process deployments (DESIGN.md §12). It mirrors
// the simulator's execution model — a single run-loop goroutine dispatches
// callbacks one at a time, same-instant callbacks fire in scheduling order —
// but the clock it paces them against is the operating system's, so timers
// like the §3.1.2 30 ms stop-retransmission timeout become real deadlines.
//
// Unlike the virtual clock, After is safe to call from any goroutine: the
// UDP backhaul's receive path posts inbound messages onto the loop with
// After(0, ...), which is what serializes transport concurrency into the
// lock-free protocol cores.
type Wall struct {
	start time.Time

	mu   sync.Mutex
	heap wallHeap
	seq  uint64

	// wake nudges the run loop when a new event may precede the deadline it
	// is sleeping toward; quit ends Run.
	wake     chan struct{}
	quit     chan struct{}
	quitOnce sync.Once
}

// NewWall returns a wall clock whose time zero is now. Call Run (usually on
// the main goroutine) to start dispatching.
func NewWall() *Wall {
	return &Wall{
		start: time.Now(),
		wake:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
	}
}

// Now implements Clock: nanoseconds of wall time since NewWall.
func (w *Wall) Now() sim.Time { return sim.Time(time.Since(w.start)) }

// wallEvent is one scheduled callback. fn == nil marks it cancelled or
// consumed; the pointer doubles as the Timer handle.
type wallEvent struct {
	w   *Wall
	at  sim.Time
	seq uint64
	fn  func()
}

// Stop implements Timer.
func (e *wallEvent) Stop() bool {
	e.w.mu.Lock()
	defer e.w.mu.Unlock()
	if e.fn == nil {
		return false
	}
	e.fn = nil // the run loop drops cancelled events lazily
	return true
}

// After implements Clock. Negative delays are clamped to zero: on a wall
// clock "in the past" just means "as soon as possible", and external
// callers racing the clock cannot be expected to win.
func (w *Wall) After(d sim.Time, fn func()) Timer {
	if fn == nil {
		panic("runtime: After called with nil function")
	}
	if d < 0 {
		d = 0
	}
	ev := &wallEvent{w: w, at: w.Now() + d, fn: fn}
	w.mu.Lock()
	ev.seq = w.seq
	w.seq++
	heap.Push(&w.heap, ev)
	first := w.heap[0] == ev
	w.mu.Unlock()
	if first {
		// Only a new head can move the run loop's next deadline earlier.
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
	return ev
}

// Run dispatches callbacks in (time, scheduling order) until Stop is
// called. All callbacks execute on the calling goroutine, one at a time —
// the live-mode counterpart of the simulator's single-threaded event loop.
func (w *Wall) Run() {
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		fn, wait, idle := w.next()
		if fn != nil {
			fn()
			continue
		}
		if idle {
			select {
			case <-w.wake:
			case <-w.quit:
				return
			}
			continue
		}
		timer.Reset(wait)
		select {
		case <-w.wake:
			if !timer.Stop() {
				<-timer.C
			}
		case <-timer.C:
		case <-w.quit:
			if !timer.Stop() {
				<-timer.C
			}
			return
		}
	}
}

// next pops one due callback, or reports how long to sleep until the head
// is due (idle when the queue is empty).
func (w *Wall) next() (fn func(), wait time.Duration, idle bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.heap) > 0 {
		head := w.heap[0]
		if head.fn == nil { // cancelled: discard and keep looking
			heap.Pop(&w.heap)
			continue
		}
		if d := head.at - w.Now(); d > 0 {
			return nil, time.Duration(d), false
		}
		heap.Pop(&w.heap)
		fn = head.fn
		head.fn = nil
		return fn, 0, false
	}
	return nil, 0, true
}

// Stop ends Run (idempotent, callable from any goroutine — including a
// callback on the run loop itself, which is how a live node winds down
// after its last protocol step).
func (w *Wall) Stop() { w.quitOnce.Do(func() { close(w.quit) }) }

// wallHeap is a min-heap of events ordered by (at, seq) — identical
// tie-breaking to the simulator's event queue, so same-instant callbacks
// fire in the order they were scheduled.
type wallHeap []*wallEvent

func (h wallHeap) Len() int { return len(h) }
func (h wallHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h wallHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *wallHeap) Push(x any)   { *h = append(*h, x.(*wallEvent)) }
func (h *wallHeap) Pop() any {
	old := *h
	n := len(old) - 1
	ev := old[n]
	old[n] = nil
	*h = old[:n]
	return ev
}
