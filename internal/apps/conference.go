package apps

import (
	"wgtt/internal/sim"
	"wgtt/internal/stats"
	"wgtt/internal/transport"
)

// ConferenceConfig describes one direction of a real-time video call.
type ConferenceConfig struct {
	// FPS is the camera frame rate the application tries to deliver.
	FPS int
	// FrameBytes is the encoded size of one frame. Skype-style HD frames
	// are large (harder to complete); Hangouts-style reduced-resolution
	// frames are small — which is exactly why the paper's Fig. 24 shows
	// Hangouts reaching a much higher delivered fps.
	FrameBytes int
	// PacketBytes is the datagram size frames are fragmented into.
	PacketBytes int
}

// frameDeadline is how late a frame's last packet may arrive and still
// count for its playback second.
const frameDeadline = 150 * sim.Millisecond

// SkypeLike returns a 30 fps HD-frame configuration.
func SkypeLike() ConferenceConfig {
	return ConferenceConfig{FPS: 30, FrameBytes: 12000, PacketBytes: 1200}
}

// HangoutsLike returns a 60 fps reduced-resolution configuration (the
// paper notes Hangouts "automatically reduces image resolution").
func HangoutsLike() ConferenceConfig {
	return ConferenceConfig{FPS: 60, FrameBytes: 3000, PacketBytes: 1200}
}

// PacketsPerFrame returns the fragment count of one frame.
func (c ConferenceConfig) PacketsPerFrame() int {
	n := (c.FrameBytes + c.PacketBytes - 1) / c.PacketBytes
	if n < 1 {
		n = 1
	}
	return n
}

// RateMbps returns the stream's on-the-wire bit rate.
func (c ConferenceConfig) RateMbps() float64 {
	return float64(c.FPS*c.PacketsPerFrame()*c.PacketBytes) * 8 / 1e6
}

// ConferenceResult is the delivered-frame-rate analysis of one direction.
type ConferenceResult struct {
	// PerSecondFPS holds the number of complete, on-time frames delivered
	// in each second of the session — the samples behind Fig. 24's CDF.
	PerSecondFPS []float64
}

// CDF builds the frame-rate distribution.
func (r ConferenceResult) CDF() *stats.CDF {
	c := &stats.CDF{}
	c.AddAll(r.PerSecondFPS)
	return c
}

// AnalyzeConference reconstructs frames from a recorded UDP arrival log
// (Record must have been enabled on the receiver): frame i consists of
// packets with Seq in [i·k, (i+1)·k); it counts for its source second if
// all k fragments arrived by the frame time plus the deadline.
func AnalyzeConference(cfg ConferenceConfig, arrivals []transport.Arrival, duration sim.Time) ConferenceResult {
	k := cfg.PacketsPerFrame()
	frameInterval := sim.Second / sim.Time(cfg.FPS)
	nFrames := int(duration / frameInterval)
	gotPkts := make(map[uint32]int)
	lastArrival := make(map[uint32]sim.Time)
	for _, a := range arrivals {
		f := a.Seq / uint32(k)
		gotPkts[f]++
		if a.At > lastArrival[f] {
			lastArrival[f] = a.At
		}
	}
	seconds := int(duration / sim.Second)
	if seconds < 1 {
		seconds = 1
	}
	perSec := make([]float64, seconds)
	for f := 0; f < nFrames; f++ {
		sent := sim.Time(f) * frameInterval
		sec := int(sent / sim.Second)
		if sec >= seconds {
			break
		}
		if gotPkts[uint32(f)] >= k && lastArrival[uint32(f)] <= sent+frameDeadline+frameInterval {
			perSec[sec]++
		}
	}
	return ConferenceResult{PerSecondFPS: perSec}
}
