package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// benchmarkJSON mirrors the repository's BENCHMARK.json, the one place the
// metric names, units, directions and bounds and the workloads' reasons are
// written down.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadBenchmarkJSON reads BENCHMARK.json from the working directory (the
// repository root, where `go run ./bench` and the driver run) or its parent
// (`go test` runs in bench/).
func loadBenchmarkJSON() (benchmarkJSON, error) {
	var b benchmarkJSON
	data, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		data, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return b, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields() // the driver refuses a file with other keys
	if err := dec.Decode(&b); err != nil {
		return b, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return b, nil
}

// runAA measures the same binary against itself: two interleaved sets (A,
// B, A, B, …) of n end-to-end runs per workload, run i of either set with
// -seed seed+i, as the driver varies it. For each (metric, workload) it
// prints both set medians, their relative gap and the largest deviation of
// a single run from its set's median, and returns 1 if a gap exceeds half
// the metric's bound in BENCHMARK.json or a single run exceeds the bound.
func runAA(run []workload, seed uint64, budget time.Duration, cycles, n int) int {
	decl, err := loadBenchmarkJSON()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: -aa needs the bounds: %v\n", err)
		return 2
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	failedOps := 0
	for i := 0; i < n; i++ {
		for set := range sets {
			for _, w := range run {
				res := runEndToEnd(w, seed+uint64(i), budget, cycles, full)
				failedOps += res.Failed
				for _, f := range res.failures {
					fmt.Printf("FAILED: %s\n", f)
				}
				for name, m := range res.Metrics {
					k := key{w.name, name}
					sets[set][k] = append(sets[set][k], m.Value)
				}
				fmt.Printf("run %d/%d set %c %-16s units_per_ref_s %.4g\n", i+1, n, 'A'+set, w.name, res.Metrics["units_per_ref_s"].Value)
			}
		}
	}

	fmt.Printf("\nA/A: %d runs per set, seeds %d to %d\n", n, seed, seed+uint64(n)-1)
	fmt.Printf("%-16s %-18s %14s %14s %9s %9s %7s\n", "workload", "metric", "median A", "median B", "gap", "max dev", "bound")
	status := 0
	for _, w := range run {
		for _, spec := range decl.EndToEnd {
			k := key{w.name, spec.Name}
			a, b := sets[0][k], sets[1][k]
			if len(a) == 0 || len(b) == 0 {
				fmt.Printf("%-16s %-18s no data\n", w.name, spec.Name)
				status = 1
				continue
			}
			ma, mb := median(a), median(b)
			gap := math.Abs(ma-mb) / ma
			dev := math.Max(maxDeviation(a, ma), maxDeviation(b, mb))
			verdict := ""
			if gap > spec.Bound/2 || dev > spec.Bound {
				verdict = "  EXCEEDS"
				status = 1
			}
			fmt.Printf("%-16s %-18s %14.6g %14.6g %8.3f%% %8.3f%% %6.1f%%%s\n",
				w.name, spec.Name, ma, mb, 100*gap, 100*dev, 100*spec.Bound, verdict)
		}
	}
	if failedOps > 0 {
		fmt.Printf("%d operations failed\n", failedOps)
		status = 1
	}
	return status
}

// maxDeviation is the largest relative distance of any x from center.
func maxDeviation(xs []float64, center float64) float64 {
	var d float64
	for _, x := range xs {
		d = math.Max(d, math.Abs(x-center)/center)
	}
	return d
}
