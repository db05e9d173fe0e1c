package main

import (
	"go/parser"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// smoke shrinks every pass so that all four workloads, traced and untraced,
// fit a unit-test budget.
var smoke = scale{simFrac: 0.08, directCall: 25 * time.Millisecond}

// TestSmoke runs one eight-rep mini-run per workload end to end and one
// traced mini-pass, and holds the program to BENCHMARK.json: every declared
// name is emitted with its declared unit, nothing undeclared is, and every
// output check passes. It asserts nothing about speed.
func TestSmoke(t *testing.T) {
	decl, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds is %d, the -seconds default %d", decl.RunSeconds, defaultSeconds)
	}
	if len(decl.EndToEnd) > 16 || len(decl.PerLayer) > 128 {
		t.Fatalf("BENCHMARK.json declares %d end-to-end and %d per-layer metrics; the limits are 16 and 128",
			len(decl.EndToEnd), len(decl.PerLayer))
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	wantE2E := map[string]string{}
	for _, m := range decl.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	wantLayer := map[string]string{}
	for _, m := range decl.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	for name, unit := range mergeMaps(wantE2E, wantLayer) {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if !unitRE.MatchString(unit) {
			t.Errorf("metric %q: unit %q is outside the unit alphabet", name, unit)
		}
	}

	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.name || !nameRE.MatchString(d.Name) || len(d.Why) > 200 || strings.Contains(d.Why, "\n") {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q", i, d.Name, d.Why, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			e2e := runEndToEnd(w, 3, 0, 1, smoke)
			if got := len(e2e.failures); got > 0 || e2e.Attempted < worldsPerCycle {
				t.Errorf("end to end: %d of %d operations failed: %v", got, e2e.Attempted, e2e.failures)
			}
			sameNames(t, "end-to-end", e2e.Metrics, wantE2E)

			// One cycle under the CPU profile: a few dozen samples at 100 Hz.
			traced := runTraced(w, 3, 0, 1, smoke, t.TempDir())
			if len(traced.failures) > 0 {
				t.Errorf("traced: %d of %d operations failed: %v", traced.Failed, traced.Attempted, traced.failures)
			}
			sameNames(t, "per-layer", traced.Metrics, wantLayer)

			var sum float64
			for name, m := range traced.Metrics {
				if strings.HasSuffix(name, ".cpu_share") {
					sum += m.Value
				}
			}
			if sum < 0.999 || sum > 1.001 {
				t.Errorf("cpu shares sum to %v, want 1", sum)
			}
		})
	}
}

func mergeMaps(ms ...map[string]string) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}

// sameNames checks that got and want hold the same metric names with the
// same units, in both directions.
func sameNames(t *testing.T, kind string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s metric %q is declared in BENCHMARK.json but not emitted", kind, name)
		} else if m.Unit != unit {
			t.Errorf("%s metric %q: emitted unit %q, declared %q", kind, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s metric %q is emitted but not declared in BENCHMARK.json", kind, name)
		}
	}
}

// TestReferenceKernelIsIndependent keeps the yardstick out of reach of the
// code it measures.
func TestReferenceKernelIsIndependent(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "ref.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(path, "wgtt/") {
			t.Errorf("ref.go imports %s; the reference kernel must not depend on the repository", path)
		}
	}
}

// TestProfileDecoder feeds the decoder a real profile of a known function.
func TestProfileDecoder(t *testing.T) {
	shares, err := cpuShares(func() {
		for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
			refSink += spin()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if shares["other"] < 0.5 {
		t.Errorf("a layer-free busy loop was charged %v; want mostly \"other\"", shares)
	}
}

//go:noinline
func spin() float64 {
	// refKernel's work under another name: samples inside refKernel itself
	// are harness samples and would be dropped.
	acc := 0.0
	for i := 0; i < 3_000_000; i++ {
		acc += float64(i&7) * 1.0000001
	}
	return acc
}
