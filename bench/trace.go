package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// layers are the repository's modules the per-layer budget is kept for, by
// the last element of their import path under wgtt/internal.
var layers = []string{
	"sim", "radio", "phy", "csi", "mac", "ap", "packet", "backhaul", "controller",
	"selector", "client", "transport", "mobility", "urban", "fleet", "core", "federation",
}

// span is one benchmark-side interval around a call into a layer. Spans of
// one rep share its Rep number; Parent is the ID of the enclosing span (0
// for a rep itself).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Rep     int     `json:"rep"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps the traced pass's spans in memory until the run ends. All
// methods are no-ops on a nil tracer, which is what untraced reps pass.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices into spans of the open spans, outermost first
	rep   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e3 }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	if len(t.open) == 0 {
		t.rep++
	}
	now := time.Now()
	t.add(name, now, now) // end closes it
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].EndUS = t.us(time.Now())
	t.open = t.open[:n]
}

// add records a child of the innermost open span with its times given.
func (t *tracer) add(name string, start, end time.Time) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Rep: t.rep, Name: name, StartUS: t.us(start), EndUS: t.us(end)})
}

// durationsMS lists the durations in milliseconds of the spans called
// name, optionally leaving out the first one of each rep.
func (t *tracer) durationsMS(name string, skipFirstPerRep bool) []float64 {
	var out []float64
	lastRep := 0
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if skipFirstPerRep && s.Rep != lastRep {
			lastRep = s.Rep
			continue
		}
		out = append(out, (s.EndUS-s.StartUS)/1e3)
	}
	return out
}

// layerOf maps a symbol such as wgtt/internal/radio.(*Fader).GainsDB to its
// layer, or "" when the function belongs to none of them.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, "wgtt/internal/")
	if !ok {
		return ""
	}
	end := strings.IndexAny(rest, "./")
	if end < 0 {
		return ""
	}
	for _, l := range layers {
		if rest[:end] == l {
			return l
		}
	}
	return ""
}

// isGoRuntime reports whether fn is the Go runtime itself: allocator,
// collector, scheduler, memmove and their internal packages.
func isGoRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") || strings.HasPrefix(fn, "internal/abi.") ||
		strings.HasPrefix(fn, "internal/bytealg.")
}

// harnessFrame reports whether fn is benchmark machinery whose samples are
// not part of any workload: the reference kernel and the forced
// collections at slice boundaries.
func harnessFrame(fn string) bool {
	return fn == "main.refPass" || fn == "main.refKernel" || fn == "runtime.GC" || fn == "runtime.ReadMemStats"
}

// chargeCPU attributes one CPU-profile sample, given its stack leaf first.
// A sample whose leaf is the Go runtime goes to "goruntime" whatever called
// it; anything else goes to the innermost layer frame, so math.Sincos under
// radio.(*Fader).GainsDB is radio's self time; a stack with no layer frame
// is "other". Harness samples return "".
func chargeCPU(stack []string) string {
	for _, fn := range stack {
		if harnessFrame(fn) {
			return ""
		}
	}
	if len(stack) > 0 && isGoRuntime(stack[0]) {
		return "goruntime"
	}
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return "other"
}

// cpuShares profiles fn and returns each bucket's share of the samples that
// belong to the workload (harness samples excluded); the shares sum to 1.
func cpuShares(fn func()) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	byBucket := map[string]float64{}
	var total float64
	for _, s := range samples {
		if b := chargeCPU(s.stack); b != "" {
			byBucket[b] += float64(s.count)
			total += float64(s.count)
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("cpu profile: no samples")
	}
	for b := range byBucket {
		byBucket[b] /= total
	}
	return byBucket, nil
}

// allocsByLayer runs fn with every allocation profiled (MemProfileRate 1,
// which makes fn several times slower: a metro rep takes about 16 s) and
// returns the exact number of objects each layer allocated: an allocation
// is charged to the innermost layer frame on its stack.
func allocsByLayer(fn func()) map[string]float64 {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	before := allocProfile()
	fn()
	after := allocProfile()

	out := map[string]float64{}
	for site, n := range after {
		objects := float64(n - before[site])
		if objects <= 0 {
			continue
		}
		frames := runtime.CallersFrames(site.pcs())
		for {
			f, more := frames.Next()
			if l := layerOf(f.Function); l != "" {
				out[l] += objects
				break
			}
			if !more {
				break
			}
		}
	}
	return out
}

// allocSite is one heap-profile bucket: a call stack.
type allocSite [32]uintptr

func (s *allocSite) pcs() []uintptr {
	for i, pc := range s {
		if pc == 0 {
			return s[:i]
		}
	}
	return s[:]
}

// allocProfile snapshots the heap profile: allocations sampled so far per
// site.
func allocProfile() map[allocSite]int64 {
	// The profile lags two collections behind the allocator.
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	out := make(map[allocSite]int64, n)
	for _, r := range recs[:n] {
		if r.AllocObjects > 0 {
			out[r.Stack0] += r.AllocObjects
		}
	}
	return out
}

// traceFile is what a traced run leaves in bench/out.
type traceFile struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	PerLayer map[string]metric `json:"per_layer"`
	Spans    []span            `json:"spans"`
}

func writeTrace(dir string, tf traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+tf.Workload+".json"), data, 0o644)
}
