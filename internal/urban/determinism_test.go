package urban

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"wgtt/internal/sim"
)

// fingerprint serializes everything observable about a plan — AP sites,
// domain bindings, stats, and every client trace sampled on a fine grid —
// so two plans can be compared byte-for-byte.
func fingerprint(p *Plan) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "dur=%d stats=%+v\n", p.Duration, p.Stats)
	for i, s := range p.APs {
		fmt.Fprintf(&b, "ap%d=%.9f,%.9f edge=%d dom=%d\n", i, s.Pos.X, s.Pos.Y, s.Edge, p.APDomains[i])
	}
	for i, c := range p.Clients {
		fmt.Fprintf(&b, "client%d kind=%v bus=%d speed=%g route=%v\n", i, c.Kind, c.Bus, c.SpeedMPH, c.Route)
		for t := sim.Time(0); t <= p.Duration; t += 100 * sim.Millisecond {
			pos := c.Trace.Position(t)
			fmt.Fprintf(&b, " %d %.9f %.9f\n", t, pos.X, pos.Y)
		}
	}
	return b.Bytes()
}

// TestPlanDeterministicAcrossWorkers mirrors the fleet determinism tests:
// the same (seed, config) must yield byte-identical routes, rider offsets,
// and AP bindings no matter how many goroutines build plans concurrently.
func TestPlanDeterministicAcrossWorkers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RidersPerBus = 4
	cfg.Pedestrians = 1
	cfg.MaxDurationS = 20
	const seed = 42

	ref, err := BuildPlan(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(ref)

	for _, workers := range []int{1, 4, 8} {
		got := make([][]byte, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				p, err := BuildPlan(cfg, seed)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				got[w] = fingerprint(p)
			}(w)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			if !bytes.Equal(got[w], want) {
				t.Fatalf("workers=%d: plan %d differs from the reference", workers, w)
			}
		}
	}
}

// TestPlanSeedSensitivity: different seeds must actually change the city.
func TestPlanSeedSensitivity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxDurationS = 20
	a, err := BuildPlan(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildPlan(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(fingerprint(a), fingerprint(b)) {
		t.Fatal("seeds 1 and 2 produced identical plans")
	}
}
