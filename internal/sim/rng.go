package sim

import (
	"hash/fnv"
	"math/rand/v2"
)

// RNG hands out independent, named random streams derived from one scenario
// seed. Two runs with the same seed see identical randomness in every
// component; changing one component's draw pattern never perturbs another's,
// because each stream is seeded from the (seed, name) pair alone.
type RNG struct {
	seed uint64
}

// NewRNG returns a stream factory for the given scenario seed.
func NewRNG(seed uint64) *RNG { return &RNG{seed: seed} }

// Stream returns the deterministic substream for name, e.g.
// "fading/ap3/client1" or "mac/backoff/ap0".
func (r *RNG) Stream(name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	s1 := h.Sum64()
	// Mix the name hash with the scenario seed through splitmix64 so that
	// related names and adjacent seeds do not yield correlated streams.
	return rand.New(rand.NewPCG(splitmix64(s1^r.seed), splitmix64(s1+0x9e3779b97f4a7c15^r.seed<<1)))
}

// splitmix64 is the finalizer of the SplitMix64 generator; it is a strong
// 64-bit mixing function suitable for seed derivation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
