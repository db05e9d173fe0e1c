package selector

import (
	"sort"

	"wgtt/internal/sim"
)

// Window is a time-bounded deque of ESNR readings for one client-AP
// link: the short-term history E(a) of §3.1.1. It lives here, with the
// selection rule, because the window *is* the evidence the rule decides
// on — the controller only routes CSI into it (selector.go), and
// the federation layer keeps the same window for foreign-AP evidence.
//
// Every CSI report triggers a median query (the selection rule re-evaluates
// on each report), so the window keeps an incrementally maintained sorted
// copy of the in-window values: push and evict adjust it by binary-search
// insert/remove (an O(n) memmove over ~100 float64s — a few cache lines),
// and median is an O(1) index. The historical copy+sort.Float64s per query
// did the same work at O(n log n) with an allocation per call.
type Window struct {
	// at/val hold the readings in arrival order starting at index head
	// (entries before head are evicted; compaction keeps the dead prefix
	// bounded, amortized O(1) per eviction).
	at   []sim.Time
	val  []float64
	head int

	// sorted is the multiset of in-window values in ascending order.
	sorted []float64

	span sim.Time
}

// NewWindow returns an empty window holding readings no older than span.
func NewWindow(span sim.Time) *Window { return &Window{span: span} }

// Push appends a reading and evicts everything older than the span.
func (w *Window) Push(at sim.Time, esnr float64) {
	w.at = append(w.at, at)
	w.val = append(w.val, esnr)
	w.insertSorted(esnr)
	w.evict(at)
}

func (w *Window) insertSorted(v float64) {
	i := sort.SearchFloat64s(w.sorted, v)
	w.sorted = append(w.sorted, 0)
	copy(w.sorted[i+1:], w.sorted[i:])
	w.sorted[i] = v
}

func (w *Window) removeSorted(v float64) {
	// v was previously inserted, so the leftmost position with sorted[i] ≥ v
	// holds exactly v.
	i := sort.SearchFloat64s(w.sorted, v)
	w.sorted = append(w.sorted[:i], w.sorted[i+1:]...)
}

func (w *Window) evict(now sim.Time) {
	for w.head < len(w.at) && w.at[w.head] < now-w.span {
		w.removeSorted(w.val[w.head])
		w.head++
	}
	// Compact once the dead prefix reaches half the slice, so the copy cost
	// is covered by the evictions that built the prefix.
	if w.head > 0 && w.head*2 >= len(w.at) {
		n := copy(w.at, w.at[w.head:])
		copy(w.val, w.val[w.head:])
		w.at = w.at[:n]
		w.val = w.val[:n]
		w.head = 0
	}
}

// Median returns the median ESNR of the in-window readings and whether the
// window holds any samples as of now.
func (w *Window) Median(now sim.Time) (float64, bool) {
	w.evict(now)
	n := len(w.sorted)
	if n == 0 {
		return 0, false
	}
	// The paper indexes the sorted sequence at L/2; for even n this is the
	// upper median, which we reproduce exactly.
	return w.sorted[n/2], true
}

// Size returns the number of buffered readings.
func (w *Window) Size() int { return len(w.at) - w.head }
