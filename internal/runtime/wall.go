package runtime

import (
	"math"
	"sync"
	"time"

	"wgtt/internal/sim"
)

// Wall paces one sim.Engine against the operating system's clock: the
// driver that runs the protocol cores in real time for live multi-process
// deployments (DESIGN.md §12). Engine time is wall time since NewWall, so
// timers like the §3.1.2 30 ms stop-retransmission timeout become real
// deadlines. Inside a callback Now is that event's due time, as in
// simulation.
//
// Post is the only goroutine-safe entry: the UDP backhaul's receive path
// posts inbound messages with it, which is what serializes transport
// concurrency into the lock-free protocol cores.
type Wall struct {
	// Eng is the engine the node's protocol cores schedule on. Once Run has
	// started only its callbacks may touch it; other goroutines Post.
	Eng *sim.Engine

	start time.Time

	mu     sync.Mutex
	posted []func()

	// wake nudges the run loop when a post arrives; quit ends Run.
	wake     chan struct{}
	quit     chan struct{}
	quitOnce sync.Once
}

// NewWall returns a wall pacer whose engine time zero is now. Wire the
// protocol cores to Eng, then call Run (usually on the main goroutine).
func NewWall() *Wall {
	return &Wall{
		Eng:   sim.NewEngine(),
		start: time.Now(),
		wake:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
	}
}

// Post hands fn to the run loop, which schedules it on Eng at the engine's
// time when it next drains the posts; posts run in the order they were made.
// Safe from any goroutine.
func (w *Wall) Post(fn func()) {
	if fn == nil {
		panic("runtime: Post called with nil function")
	}
	w.mu.Lock()
	w.posted = append(w.posted, fn)
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// Run loops until Stop: fire every engine event due by the wall clock,
// schedule the posted callbacks at the engine's current time, then sleep
// until the next event is due, a post arrives, or Stop is called. All
// callbacks execute on the calling goroutine, one at a time.
func (w *Wall) Run() {
	for {
		w.Eng.RunUntil(sim.Time(time.Since(w.start)))
		w.mu.Lock()
		for _, fn := range w.posted {
			w.Eng.At(w.Eng.Now(), fn)
		}
		clear(w.posted)
		w.posted = w.posted[:0]
		w.mu.Unlock()
		wait := time.Duration(math.MaxInt64) // nothing queued: until a post
		if at, ok := w.Eng.Next(); ok {
			wait = time.Duration(at) - time.Since(w.start)
		}
		if !w.sleep(wait) {
			return
		}
	}
}

// sleep waits up to d for a post, reporting false once Stop was called.
func (w *Wall) sleep(d time.Duration) bool {
	if d <= 0 {
		select {
		case <-w.quit:
			return false
		default:
			return true
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-w.wake:
	case <-w.quit:
		return false
	}
	return true
}

// Stop ends Run (idempotent, callable from any goroutine — including a
// callback on the run loop itself, which is how a live node winds down
// after its last protocol step).
func (w *Wall) Stop() { w.quitOnce.Do(func() { close(w.quit) }) }
