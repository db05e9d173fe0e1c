package radio

import (
	"fmt"
	"math"

	"wgtt/internal/mobility"
	"wgtt/internal/sim"
)

// Params configures the channel model. The defaults describe the paper's
// testbed: channel 11 at 2.4 GHz, 20 MHz HT channel with 56 used OFDM
// subcarriers (what the Atheros CSI tool reports), directional roadside APs
// behind an office window.
type Params struct {
	FrequencyHz         float64 // carrier frequency (channel 11: 2.462 GHz)
	Subcarriers         int     // CSI-visible subcarriers (56 for HT20)
	SubcarrierSpacingHz float64 // 312.5 kHz in 802.11 OFDM
	Taps                []Tap   // multipath profile (nil ⇒ DefaultTaps)
	Oscillators         int     // Jakes sinusoids per tap
	MinDopplerHz        float64 // residual environmental Doppler when parked
	// NoFading disables both small-scale fading and shadowing, leaving
	// deterministic links from geometry alone — for controlled tests and
	// ablations.
	NoFading bool
	// Obstruction, when non-nil, adds a deterministic geometry-dependent
	// blockage loss (dB) between two positions — e.g. the street-canyon
	// corner diffraction of an urban map, where a link that bends around a
	// building corner is tens of dB down on a same-street link. It must be
	// symmetric in its arguments (channel reciprocity) and pure. nil keeps
	// the open-corridor model byte-identical.
	Obstruction func(a, b mobility.Point) float64
}

// DefaultParams returns the testbed channel parameters.
func DefaultParams() Params {
	return Params{
		FrequencyHz:         2.462e9,
		Subcarriers:         56,
		SubcarrierSpacingHz: 312.5e3,
		Oscillators:         8,
		MinDopplerHz:        1.5,
	}
}

// Large-scale propagation of the testbed street (§2, Fig. 2): log-distance
// path loss calibrated to an urban street canyon, anchored at the free-space
// loss one meter out, under log-normal shadowing — the obstructions that
// make one AP's link sag for seconds while a neighbour's stays strong.
// Typed, so arithmetic on them rounds exactly as it did on struct fields.
const (
	pathLossExponent float64 = 2.7
	refDistanceM     float64 = 1
	shadowSigmaDB    float64 = 4 // shadowing standard deviation
	shadowCorrM      float64 = 4 // shadowing correlation length, meters
)

// noiseFloorDBm is the receiver noise floor: thermal noise over the 20 MHz
// channel plus a 6 dB noise figure.
var noiseFloorDBm = ThermalNoiseDBm(20e6, 6)

// Channel owns every radio endpoint and hands out (and caches) pairwise
// links, each with its own deterministic fading process seeded from the
// scenario RNG by the endpoint names.
type Channel struct {
	params    Params
	rng       *sim.RNG
	endpoints map[string]*Endpoint
	links     map[[2]string]*Link
	disturbs  []disturber
	// twid is the one subcarrier table every link's fader combines over,
	// built with the first link.
	twid *twiddle

	// Samples counts per-subcarrier fading samples taken on this channel's
	// links (Link.SampleInto with fading on) — the radio's dominant cost.
	Samples uint64
}

type disturber struct {
	trace mobility.Trace
	speed float64
}

// NewChannel creates a channel with the given parameters and random source.
func NewChannel(params Params, rng *sim.RNG) *Channel {
	if params.Subcarriers <= 0 {
		params.Subcarriers = 56
	}
	if params.Taps == nil {
		params.Taps = DefaultTaps()
	}
	return &Channel{
		params:    params,
		rng:       rng,
		endpoints: make(map[string]*Endpoint),
		links:     make(map[[2]string]*Link),
	}
}

// AddEndpoint registers a radio node. Name must be unique.
func (c *Channel) AddEndpoint(e *Endpoint) error {
	if e.Name == "" {
		return fmt.Errorf("radio: endpoint needs a name")
	}
	if _, dup := c.endpoints[e.Name]; dup {
		return fmt.Errorf("radio: duplicate endpoint %q", e.Name)
	}
	if e.Trace == nil {
		return fmt.Errorf("radio: endpoint %q has no trace", e.Name)
	}
	if e.Antenna == nil {
		e.Antenna = Isotropic{}
	}
	c.endpoints[e.Name] = e
	return nil
}

// AddDisturber registers a moving scatterer (another vehicle) that is not a
// radio endpoint of interest but perturbs nearby links — the paper's §5.2.2
// observation that multiple vehicles introduce dynamic multipath and higher
// loss. Each (link, disturber) pair gets an independent slow fading process;
// when the disturber is near the link's client and that process is in a deep
// fade, the link sees extra attenuation.
func (c *Channel) AddDisturber(trace mobility.Trace, speedHintMS float64) {
	c.disturbs = append(c.disturbs, disturber{trace: trace, speed: speedHintMS})
	// Invalidate cached links so they pick up the new disturber.
	c.links = make(map[[2]string]*Link)
}

// Link returns (creating on first use) the channel between two endpoints.
// The link is symmetric: Link(a, b) and Link(b, a) are the same object.
func (c *Channel) Link(a, b string) (*Link, error) {
	ea, ok := c.endpoints[a]
	if !ok {
		return nil, fmt.Errorf("radio: unknown endpoint %q", a)
	}
	eb, ok := c.endpoints[b]
	if !ok {
		return nil, fmt.Errorf("radio: unknown endpoint %q", b)
	}
	if a == b {
		return nil, fmt.Errorf("radio: self-link %q", a)
	}
	key := [2]string{a, b}
	if a > b {
		key = [2]string{b, a}
	}
	if l, ok := c.links[key]; ok {
		return l, nil
	}
	doppler := DopplerHz(math.Max(ea.SpeedHintMS, eb.SpeedHintMS), c.params.FrequencyHz)
	fader := NewFader(c.params.Taps, c.params.Oscillators,
		doppler, c.params.MinDopplerHz, c.rng.Stream("fading/"+key[0]+"/"+key[1]))
	fader.twid = c.twid // nil for the channel's first link, which builds it
	fader.Prime(c.params.Subcarriers, c.params.SubcarrierSpacingHz)
	c.twid = fader.twid
	l := &Link{A: ea, B: eb, fader: fader, params: c.params, samples: &c.Samples}
	if !c.params.NoFading {
		l.shadow = NewShadower(shadowSigmaDB, shadowCorrM, c.rng.Stream("shadow/"+key[0]+"/"+key[1]))
		l.mobile = ea
		if eb.SpeedHintMS > ea.SpeedHintMS {
			l.mobile = eb
		}
	}
	l.disturb = c.buildDisturb(key, ea, eb)
	c.links[key] = l
	return l, nil
}

// buildDisturb composes the per-disturber obstruction processes for a link.
// The client side of the link is whichever endpoint moves (falls back to B).
func (c *Channel) buildDisturb(key [2]string, ea, eb *Endpoint) func(sim.Time) float64 {
	if len(c.disturbs) == 0 {
		return nil
	}
	mobile := ea
	if eb.SpeedHintMS > ea.SpeedHintMS {
		mobile = eb
	}
	type proc struct {
		trace mobility.Trace
		fader *Fader
	}
	procs := make([]proc, 0, len(c.disturbs))
	for i, d := range c.disturbs {
		// A slow, flat process: the disturber's scattering channel. Doppler
		// scaled down — the geometry changes slower than the carrier phase.
		dop := DopplerHz(d.speed, c.params.FrequencyHz) * 0.25
		f := NewFader([]Tap{{DelayNS: 0, PowerDB: 0}}, c.params.Oscillators, dop,
			c.params.MinDopplerHz, c.rng.Stream(fmt.Sprintf("disturb/%s/%s/%d", key[0], key[1], i)))
		procs = append(procs, proc{trace: d.trace, fader: f})
	}
	const nearM, farM = 5.0, 25.0
	return func(t sim.Time) float64 {
		var loss float64
		cp := mobile.Position(t)
		for _, p := range procs {
			d := p.trace.Position(t).Distance(cp)
			if d >= farM || d < 0.01 { // 0.01: the "disturber" is this client itself
				continue
			}
			severity := 1.0
			if d > nearM {
				severity = (farM - d) / (farM - nearM)
			}
			// Extra loss only when the scattering process is in a fade:
			// occasional deep dips, small average penalty.
			if fade := p.fader.FlatGainDB(t.Seconds()); fade < 0 {
				loss += severity * -fade
			}
		}
		return loss
	}
}
