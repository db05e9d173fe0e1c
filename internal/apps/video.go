// Package apps models the paper's §5.4 case-study workloads on top of the
// transport layer: online video streaming (rebuffer ratio, Table 4),
// two-way video conferencing (frame rate CDF, Fig. 24), and web browsing
// (page load time, Table 5). Each model turns a delivered-data timeline
// into the QoE metric the paper reports.
package apps

import (
	"wgtt/internal/sim"
	"wgtt/internal/transport"
)

// The §5.4 player settings.
const (
	// videoBitrateMbps is the media bitrate (an HD 1280×720 stream).
	videoBitrateMbps float64 = 2.5
	// videoPreBuffer is the player's startup/rebuffer threshold (the paper
	// sets 1,500 ms).
	videoPreBuffer = 1500 * sim.Millisecond
	// videoTick is the playback simulation step.
	videoTick = 10 * sim.Millisecond
)

// VideoResult summarizes a playback session.
type VideoResult struct {
	// RebufferRatio is stall time divided by session duration — the
	// paper's Table 4 metric. Initial buffering does not count.
	RebufferRatio float64
	// Stalls is the number of distinct rebuffering events.
	Stalls int
	// StallTime is the cumulative stalled duration after playback began.
	StallTime sim.Time
	// Started reports whether playback ever began.
	Started bool
}

// PlayVideo replays a player against a receiver's delivery timeline:
// playback begins once the pre-buffer's worth of media has arrived, then
// consumes the media bitrate; when the buffer runs dry the player stalls
// (one rebuffer) and waits for the pre-buffer to refill, like the paper's
// VLC setup.
//
// progress is the TCP receiver's in-order delivery trace (Record must have
// been enabled) and duration the session length the ratio is normalized by.
func PlayVideo(progress []transport.ProgressSample, duration sim.Time) VideoResult {
	var res VideoResult
	if duration <= 0 {
		return res
	}
	bytesPerSec := videoBitrateMbps * 1e6 / 8
	preBytes := bytesPerSec * videoPreBuffer.Seconds()

	pi := 0
	delivered := 0.0
	deliveredAt := func(t sim.Time) float64 {
		for pi < len(progress) && progress[pi].At <= t {
			delivered = float64(progress[pi].Segs) * transport.DefaultMSS
			pi++
		}
		return delivered
	}

	var played float64
	playing := false
	for t := sim.Time(0); t < duration; t += videoTick {
		avail := deliveredAt(t) - played
		if playing {
			need := bytesPerSec * videoTick.Seconds()
			if avail >= need {
				played += need
				continue
			}
			// Buffer dry: a rebuffer event begins.
			playing = false
			res.Stalls++
			res.StallTime += videoTick
			continue
		}
		// Buffering (initial or rebuffer).
		if avail >= preBytes {
			playing = true
			res.Started = true
			continue
		}
		if res.Started {
			res.StallTime += videoTick
		}
	}
	res.RebufferRatio = res.StallTime.Seconds() / duration.Seconds()
	return res
}
