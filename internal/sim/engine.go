package sim

import (
	"fmt"
	"math"
)

// Engine is a discrete-event simulator. Events fire in nondecreasing time
// order; events scheduled for the same instant fire in scheduling order,
// which keeps runs fully deterministic.
//
// Events live in a slab arena indexed by a hand-rolled binary min-heap of
// small value records, so steady-state scheduling performs no per-event heap
// allocations: At/After reuse arena slots freed by fired or compacted
// events, and Timer is a value handle (slot + generation), not a pointer.
//
// Engine is not safe for concurrent use: the entire simulation is
// single-threaded by design (see DESIGN.md §5), so component code never
// needs locks.
type Engine struct {
	now    Time
	heap   []eventRef // binary min-heap ordered by (at, seq)
	arena  []event    // slot-addressed event storage
	free   []int32    // reusable arena slots
	seq    uint64
	nfired uint64
	// ncancelled counts lazily-cancelled events still sitting in the heap;
	// when they outnumber the live ones the heap is compacted so keepalive-
	// style arm/cancel churn cannot bloat the queue.
	ncancelled int
}

// event is one arena slot. fn == nil marks a cancelled or consumed event;
// gen increments every time the slot is recycled, invalidating stale Timer
// handles.
type event struct {
	fn  func()
	gen uint32
}

// eventRef is one heap entry: the firing time, the FIFO tiebreak sequence,
// and the arena slot holding the callback.
type eventRef struct {
	at   Time
	seq  uint64
	slot int32
}

// NewEngine returns an Engine positioned at time zero with an empty queue.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the total number of events that have been dispatched.
func (e *Engine) Fired() uint64 { return e.nfired }

// Timer is a value handle to a scheduled event. The zero Timer is inert:
// Stop reports false. Timers are created by Engine.At and Engine.After and
// stay valid (as inert handles) after firing.
type Timer struct {
	eng  *Engine
	slot int32
	gen  uint32
}

// valid reports whether the timer still references its original arena slot.
func (t Timer) valid() bool {
	return t.eng != nil && int(t.slot) < len(t.eng.arena) && t.eng.arena[t.slot].gen == t.gen
}

// Stop cancels the timer if it has not fired yet. It reports whether the
// cancellation prevented the event from firing.
func (t Timer) Stop() bool {
	if !t.valid() || t.eng.arena[t.slot].fn == nil {
		return false
	}
	t.eng.arena[t.slot].fn = nil // the queue drops cancelled events lazily
	t.eng.ncancelled++
	t.eng.maybeCompact()
	return true
}

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// panics: it always indicates a component bug, and silently reordering time
// would corrupt every downstream measurement.
func (e *Engine) At(at Time, fn func()) Timer {
	if fn == nil {
		panic("sim: At called with nil function")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (now=%v, at=%v)", e.now, at))
	}
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.arena = append(e.arena, event{})
		slot = int32(len(e.arena) - 1)
	}
	e.arena[slot].fn = fn
	ref := eventRef{at: at, seq: e.seq, slot: slot}
	e.seq++
	e.heap = append(e.heap, ref)
	e.siftUp(len(e.heap) - 1)
	return Timer{eng: e, slot: slot, gen: e.arena[slot].gen}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Step dispatches the single next event. It reports false when the queue is
// empty.
func (e *Engine) Step() bool { return e.stepUntil(Time(math.MaxInt64)) }

// Next reports when the next live event is due, false when none is queued.
// Cancelled events at the head are discarded without firing or moving Now.
func (e *Engine) Next() (Time, bool) {
	if !e.head() {
		return 0, false
	}
	return e.heap[0].at, true
}

// head discards cancelled events from the top of the heap and reports
// whether a live event remains there.
func (e *Engine) head() bool {
	for len(e.heap) > 0 {
		slot := e.heap[0].slot
		if e.arena[slot].fn != nil {
			return true
		}
		e.popHead()
		e.ncancelled--
		e.recycle(slot)
	}
	return false
}

// stepUntil dispatches the next live event if it is due at or before
// deadline. Cancelled events encountered at the head are discarded without
// advancing the clock, so a cancelled head never licenses a post-deadline
// dispatch.
func (e *Engine) stepUntil(deadline Time) bool {
	if !e.head() || e.heap[0].at > deadline {
		return false
	}
	ref := e.heap[0]
	ev := &e.arena[ref.slot]
	e.popHead()
	e.now = ref.at
	fn := ev.fn
	ev.fn = nil
	e.recycle(ref.slot)
	e.nfired++
	fn()
	return true
}

// popHead removes the root of the heap.
func (e *Engine) popHead() {
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown(0)
	}
}

// recycle returns an arena slot to the free list, invalidating outstanding
// Timer handles to it.
func (e *Engine) recycle(slot int32) {
	e.arena[slot].gen++
	e.free = append(e.free, slot)
}

// compactThreshold is the minimum heap size before cancelled-entry
// compaction is considered; below it the lazy scheme is already cheap.
const compactThreshold = 64

// maybeCompact rebuilds the heap without its cancelled entries once they
// outnumber the live ones. Rebuilding is O(n) and amortizes to O(1) per
// cancellation, bounding queue memory under arm/cancel churn.
func (e *Engine) maybeCompact() {
	if e.ncancelled < compactThreshold || e.ncancelled*2 <= len(e.heap) {
		return
	}
	kept := e.heap[:0]
	for _, ref := range e.heap {
		if e.arena[ref.slot].fn != nil {
			kept = append(kept, ref)
		} else {
			e.recycle(ref.slot)
		}
	}
	e.heap = kept
	for i := len(e.heap)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
	e.ncancelled = 0
}

// Run dispatches events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil dispatches events with time ≤ deadline and then advances the
// clock to exactly deadline. Events scheduled after deadline remain queued.
func (e *Engine) RunUntil(deadline Time) {
	for e.stepUntil(deadline) {
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// refLess orders heap entries by (time, insertion sequence).
func refLess(a, b eventRef) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) siftUp(i int) {
	ref := e.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !refLess(ref, e.heap[parent]) {
			break
		}
		e.heap[i] = e.heap[parent]
		i = parent
	}
	e.heap[i] = ref
}

func (e *Engine) siftDown(i int) {
	n := len(e.heap)
	ref := e.heap[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && refLess(e.heap[r], e.heap[child]) {
			child = r
		}
		if !refLess(e.heap[child], ref) {
			break
		}
		e.heap[i] = e.heap[child]
		i = child
	}
	e.heap[i] = ref
}
