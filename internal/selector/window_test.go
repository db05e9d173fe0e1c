package selector

import (
	"math/rand/v2"
	"sort"
	"testing"

	"wgtt/internal/sim"
)

// refWindow is the pre-optimization implementation — slice eviction plus a
// copy+sort per median — kept as the golden reference for the incremental
// order-statistic window.
type refWindow struct {
	at   []sim.Time
	val  []float64
	span sim.Time
}

func (w *refWindow) push(at sim.Time, esnr float64) {
	w.at = append(w.at, at)
	w.val = append(w.val, esnr)
	w.evict(at)
}

func (w *refWindow) evict(now sim.Time) {
	cut := 0
	for cut < len(w.at) && w.at[cut] < now-w.span {
		cut++
	}
	if cut > 0 {
		w.at = append(w.at[:0], w.at[cut:]...)
		w.val = append(w.val[:0], w.val[cut:]...)
	}
}

func (w *refWindow) median(now sim.Time) (float64, bool) {
	w.evict(now)
	n := len(w.val)
	if n == 0 {
		return 0, false
	}
	scratch := make([]float64, n)
	copy(scratch, w.val)
	sort.Float64s(scratch)
	return scratch[n/2], true
}

// The incremental window must agree exactly with the sort-based reference
// under a randomized schedule of pushes, quiet gaps, and median queries —
// including windows that fully drain and duplicate values.
func TestWindowMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewPCG(41, 43))
	span := 10 * sim.Millisecond
	w := NewWindow(span)
	ref := &refWindow{span: span}

	now := sim.Time(0)
	for i := 0; i < 20000; i++ {
		// Mostly dense arrivals; occasionally a gap long enough to drain
		// the whole window.
		switch rnd.IntN(20) {
		case 0:
			now += sim.Time(rnd.Int64N(int64(3 * span)))
		default:
			now += sim.Time(rnd.Int64N(int64(span / 8)))
		}
		// Quantized values force duplicates into the multiset.
		v := float64(rnd.IntN(64)) / 4
		w.Push(now, v)
		ref.push(now, v)

		if w.Size() != len(ref.val) {
			t.Fatalf("step %d: size %d, reference %d", i, w.Size(), len(ref.val))
		}
		// Query at a probe time at or after the last push.
		probe := now + sim.Time(rnd.Int64N(int64(span/4)))
		gm, gok := w.Median(probe)
		rm, rok := ref.median(probe)
		if gok != rok || gm != rm {
			t.Fatalf("step %d: median(%v) = (%v,%v), reference (%v,%v)", i, probe, gm, gok, rm, rok)
		}
	}
}

// A steady-state push+median cycle must not allocate once the window's
// buffers have reached their high-water capacity.
func TestWindowZeroAllocSteadyState(t *testing.T) {
	span := 10 * sim.Millisecond
	w := NewWindow(span)
	now := sim.Time(0)
	step := 100 * sim.Microsecond
	val := func(i int) float64 { return float64(i%37) / 4 }
	for i := 0; i < 1024; i++ { // warm to steady size (~100 entries)
		now += step
		w.Push(now, val(i))
		w.Median(now)
	}
	i := 0
	if avg := testing.AllocsPerRun(500, func() {
		i++
		now += step
		w.Push(now, val(i))
		if _, ok := w.Median(now); !ok {
			t.Fatal("window drained unexpectedly")
		}
	}); avg != 0 {
		t.Errorf("steady-state push+median allocates %.2f times per sample, want 0", avg)
	}
}

func TestWindowMedianAndEviction(t *testing.T) {
	w := NewWindow(10 * sim.Millisecond)
	if _, ok := w.Median(0); ok {
		t.Error("empty window reported a median")
	}
	w.Push(1*sim.Millisecond, 10)
	w.Push(2*sim.Millisecond, 30)
	w.Push(3*sim.Millisecond, 20)
	med, ok := w.Median(3 * sim.Millisecond)
	if !ok || med != 20 {
		t.Errorf("median = %v, %v", med, ok)
	}
	// Paper's upper median for even counts: sorted[n/2].
	w.Push(4*sim.Millisecond, 40)
	med, _ = w.Median(4 * sim.Millisecond)
	if med != 30 {
		t.Errorf("even-count median = %v, want 30 (upper)", med)
	}
	// Everything slides out after 10 ms.
	if _, ok := w.Median(20 * sim.Millisecond); ok {
		t.Error("stale window still reported a median")
	}
	if w.Size() != 0 {
		t.Errorf("window not evicted, size=%d", w.Size())
	}
}

// Property: the window median matches a sort-based reference for random
// sample sets (upper median at even counts, like the paper's e_{L/2}).
func TestWindowMedianMatchesReference(t *testing.T) {
	rnd := sim.NewRNG(77).Stream("median")
	for trial := 0; trial < 200; trial++ {
		w := NewWindow(sim.Second)
		n := 1 + rnd.IntN(40)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rnd.Float64()*40 - 10
			w.Push(sim.Time(i)*sim.Millisecond, vals[i])
		}
		got, ok := w.Median(sim.Time(n) * sim.Millisecond)
		if !ok {
			t.Fatal("median missing")
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		if want := sorted[n/2]; got != want {
			t.Fatalf("median = %v, want %v (n=%d)", got, want, n)
		}
	}
}

// The least-squares fit must recover an exact linear ramp's slope and
// extrapolate it to the horizon.
func TestWindowFitLinearRamp(t *testing.T) {
	w := NewWindow(100 * sim.Millisecond)
	// ESNR falling 20 dB/s: y = 30 - 20 t.
	for i := 0; i <= 10; i++ {
		at := sim.Time(i) * 5 * sim.Millisecond
		w.Push(at, 30-20*at.Seconds())
	}
	now := 50 * sim.Millisecond
	ref := now + 50*sim.Millisecond
	slope, pred, ok := w.fit(now, ref)
	if !ok {
		t.Fatal("fit failed on 11 samples")
	}
	if slope < -20.01 || slope > -19.99 {
		t.Errorf("slope = %v dB/s, want -20", slope)
	}
	want := 30 - 20*ref.Seconds()
	if pred < want-0.01 || pred > want+0.01 {
		t.Errorf("predicted = %v at %v, want %v", pred, ref, want)
	}
	// Degenerate cases: one sample, and all samples at one instant.
	w2 := NewWindow(100 * sim.Millisecond)
	w2.Push(sim.Millisecond, 5)
	if _, _, ok := w2.fit(sim.Millisecond, 2*sim.Millisecond); ok {
		t.Error("fit succeeded with one sample")
	}
	w2.Push(sim.Millisecond, 7)
	if _, _, ok := w2.fit(sim.Millisecond, 2*sim.Millisecond); ok {
		t.Error("fit succeeded with zero time spread")
	}
}
