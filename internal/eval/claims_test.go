package eval

import (
	"fmt"
	"testing"

	"wgtt/internal/selector"
)

// claimSeeds are the seeds a selection policy's claim is decided on; a
// claim part holds when it wins on at least claimWins of them.
const (
	claimSeeds = 12
	claimWins  = 9
)

// claimPart is one condition of an extension policy's claim, decided on
// one seed's ExtSelector run: i is the policy's row, 0 the
// windowed-median rule's.
type claimPart struct {
	name string
	win  func(r *ExtSelectorResult, i int) bool
}

// selectorClaims is the claim each extension policy's godoc makes, in the
// terms TestSelectorClaims scores.
var selectorClaims = map[selector.Policy][]claimPart{
	selector.GlobalAssignPolicy: {
		{"lower mean peak AP load", func(r *ExtSelectorResult, i int) bool {
			return r.MeanAPLoad[i] < r.MeanAPLoad[0]
		}},
		{"equal-or-better goodput", func(r *ExtSelectorResult, i int) bool {
			return r.PerClientMbps[i] >= r.PerClientMbps[0]
		}},
	},
}

// TestSelectorClaims holds every extension selection policy to its claim
// (DESIGN.md §15): on ExtSelector at full settings — three following
// clients at 25 mph, 20 Mb/s each — each part of the claim must beat the
// windowed-median rule of the same seed on at least claimWins of seeds
// 1–claimSeeds. A policy without a claim fails the test.
func TestSelectorClaims(t *testing.T) {
	runs := make([]*ExtSelectorResult, claimSeeds)
	t.Run("seed", func(t *testing.T) {
		for i := range runs {
			t.Run(fmt.Sprint(i+1), func(t *testing.T) {
				t.Parallel()
				r, err := ExtSelector(Options{Seed: uint64(i + 1)})
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = r
			})
		}
	})
	if t.Failed() {
		return
	}
	if runs[0].Policies[0] != selector.WindowedMedianPolicy {
		t.Fatalf("ExtSelector's first row is %s, want the windowed-median rule", runs[0].Policies[0])
	}
	for i := 1; i < len(runs[0].Policies); i++ {
		pol := runs[0].Policies[i]
		parts, ok := selectorClaims[pol]
		if !ok {
			t.Errorf("%s: no claim to hold it to", pol)
			continue
		}
		for _, part := range parts {
			wins := 0
			for _, r := range runs {
				if part.win(r, i) {
					wins++
				}
			}
			t.Logf("%s: %s on %d of %d seeds", pol, part.name, wins, claimSeeds)
			if wins < claimWins {
				t.Errorf("%s: %s on %d of %d seeds, want at least %d", pol, part.name, wins, claimSeeds, claimWins)
			}
		}
	}
}
