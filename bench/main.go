// Command bench is the repository's benchmark (see README.md in this
// directory and BENCHMARK.json at the repository root): four workloads,
// six end-to-end metrics measured on untraced reps in reference-normalised
// host time, and a per-layer budget from a separate traced pass.
//
//	go run ./bench -seed 2017                  # everything, for people
//	go run ./bench -workload metro -trace 0    # one workload, end to end
//	go run ./bench -aa 5                       # A/A repeatability report
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 24

// result is one (workload, pass) outcome.
type result struct {
	Attempted int
	Failed    int
	Metrics   map[string]metric

	failures []string
}

func (r *result) absorb(p *pass) {
	r.Attempted += p.attempted
	r.Failed += len(p.failures)
	r.failures = append(r.failures, p.failures...)
}

// print lists the metrics for people and ends with the one-line JSON object
// the driver reads.
func (r *result) print(title string) {
	fmt.Printf("\n== %s ==\n", title)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("  %-44s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("  operations: %d attempted, %d failed\n", r.Attempted, r.Failed)
	for _, f := range r.failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // only finite floats and strings in there
	}
	fmt.Printf("%s\n", line)
}

// runEndToEnd measures the end-to-end metrics of one workload on untraced
// reps — cycles whole cycles, or as many as fit budget when cycles is 0 —
// with the build-only constructions between them, then the output checks
// that need runs of their own.
func runEndToEnd(w workload, seed uint64, budget time.Duration, cycles int, sc scale) result {
	p := &pass{w: w, sc: sc, setup: true}
	p.cycles(seed, budget, cycles)
	p.checkRepeats()
	res := result{Metrics: map[string]metric{}}
	if len(p.reps) > 0 {
		res.Metrics = p.endToEnd()
		if r := p.reps[0]; w.crossCheck != nil {
			ran, err := w.crossCheck(worldSeed(r.world), sc.simFrac, r.digest)
			if ran {
				p.attempted++
			}
			if err != nil {
				p.fail("%s seed %d: %v", w.name, worldSeed(r.world), err)
			}
		}
		warnNoise(w, &p.runClock)
	}
	res.absorb(p)
	return res
}

// warnNoise tells the reader when the box was too busy for the numbers to
// mean much; it never fails the run.
func warnNoise(w workload, ref *refClock) {
	if s := ref.slowdown(); s > 1.5 {
		fmt.Fprintf(os.Stderr, "bench: warning: %s: reference kernel ran %.2fx slower than nominal; the host is busy\n", w.name, s)
	}
	if cv := ref.cv(); cv > 0.25 {
		fmt.Fprintf(os.Stderr, "bench: warning: %s: reference passes vary by CV %.2f; host speed was unsteady during the run\n", w.name, cv)
	}
}

func main() {
	seed := flag.Uint64("seed", 2017, "workload seed S: rep i visits world (S + i) mod 8 of the fixed set of eight")
	reps := flag.Int("reps", 0, "timed reps per workload, a multiple of 8 (default: the whole cycles of 8 that come nearest to -seconds)")
	seconds := flag.Int("seconds", defaultSeconds, "how long the timed reps of a pass run, in seconds (the driver's flag; ignored when -reps is set)")
	only := flag.String("workload", "", "run only this workload (default: all four)")
	trace := flag.Int("trace", -1, "0: end-to-end metrics from untraced reps; 1: per-layer metrics from the traced pass; default: both")
	aa := flag.Int("aa", 0, "A/A mode: two interleaved sets of this many end-to-end runs; 5 is the usual count")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *reps < 0 || *reps%worldsPerCycle != 0 || *trace < -1 || *trace > 1 || *aa < 0 {
		flag.Usage()
		os.Exit(2)
	}

	run := workloads
	if *only != "" {
		w, ok := findWorkload(*only)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *only)
			os.Exit(2)
		}
		run = []workload{w}
	}

	// Load sizing: every timed rep runs on this goroutine with one
	// processor, the condition a fleet puts each simulation in.
	runtime.GOMAXPROCS(1)
	fmt.Printf("wgtt bench: %d CPU(s), timed work at GOMAXPROCS(1), seed %d\n", runtime.NumCPU(), *seed)
	fmt.Println("all traffic is simulated in-process: no packet crosses a real link or the loopback interface")

	budget := time.Duration(*seconds) * time.Second
	cycles := *reps / worldsPerCycle
	if *aa > 0 {
		os.Exit(runAA(run, *seed, budget, cycles, *aa))
	}
	failed := 0
	for _, w := range run {
		if *trace != 1 {
			res := runEndToEnd(w, *seed, budget, cycles, full)
			res.print(w.name + ": end to end, in " + w.unit)
			failed += res.Failed
		}
		if *trace != 0 {
			res := runTraced(w, *seed, budget, cycles, full, "bench/out")
			res.print(w.name + ": per layer")
			failed += res.Failed
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
