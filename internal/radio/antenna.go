package radio

import "math"

// Antenna models a transmit/receive antenna gain pattern in the road plane.
// Angle is measured in radians relative to the antenna's boresight; patterns
// are symmetric about boresight.
type Antenna interface {
	// GainDB returns the antenna gain, in dBi, at the given off-boresight
	// angle in radians.
	GainDB(offBoresightRad float64) float64
}

// Isotropic is a 0 dBi omnidirectional antenna, used for clients (the
// paper's laptops / phone) and for the omni small-cell variant mentioned in
// §4.2.
type Isotropic struct{}

// GainDB implements Antenna.
func (Isotropic) GainDB(float64) float64 { return 0 }

// Omni is an omnidirectional antenna with a fixed gain.
type Omni struct {
	PeakDBi float64
}

// GainDB implements Antenna.
func (o Omni) GainDB(float64) float64 { return o.PeakDBi }

// Parabolic models the testbed's Laird GD24BP-style grid parabolic: 14 dBi
// peak gain and a 21° half-power beamwidth, with a side-lobe floor. The main
// lobe follows the standard quadratic (Gaussian, in dB) approximation
//
//	G(θ) = peak − 12 (θ/θ₃dB)² dB
//
// where θ₃dB is the full half-power beamwidth, clamped at peak − SideLobeDB.
// The side lobes matter: the paper (§5.3.2) credits them with letting
// adjacent APs hear the client (and each other) well enough for monitor-mode
// overhearing while keeping link-layer ACK collisions rare.
type Parabolic struct {
	PeakDBi      float64 // boresight gain, dBi
	BeamwidthDeg float64 // full −3 dB beamwidth, degrees
	SideLobeDB   float64 // side-lobe level below peak, dB (positive number)
}

// NewLairdGD24BP returns the testbed antenna: 14 dBi, 21° beamwidth. The
// 30 dB side-lobe floor keeps each AP's usable cell a few meters wide (the
// paper's 5.2 m cells with 6–10 m overlap) while still letting adjacent
// monitor-mode APs overhear robust control frames.
func NewLairdGD24BP() Parabolic {
	return Parabolic{PeakDBi: 14, BeamwidthDeg: 21, SideLobeDB: 30}
}

// GainDB implements Antenna.
func (p Parabolic) GainDB(offBoresightRad float64) float64 {
	theta := math.Abs(offBoresightRad)
	// Fold into [0, π]: the pattern is symmetric front/back about the
	// side-lobe floor anyway.
	for theta > math.Pi {
		theta -= 2 * math.Pi
		theta = math.Abs(theta)
	}
	bwRad := p.BeamwidthDeg * math.Pi / 180
	loss := 12 * (theta / bwRad) * (theta / bwRad)
	if loss > p.SideLobeDB {
		loss = p.SideLobeDB
	}
	return p.PeakDBi - loss
}
