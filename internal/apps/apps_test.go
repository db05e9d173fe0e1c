package apps

import (
	"math"
	"testing"

	"wgtt/internal/sim"
	"wgtt/internal/transport"
)

// steadyProgress builds a delivery trace at a constant rate (Mb/s).
func steadyProgress(rateMbps float64, segBytes int, duration sim.Time) []transport.ProgressSample {
	var out []transport.ProgressSample
	bytesPerSec := rateMbps * 1e6 / 8
	segsPerSec := bytesPerSec / float64(segBytes)
	step := 50 * sim.Millisecond
	for t := step; t <= duration; t += step {
		out = append(out, transport.ProgressSample{
			At:   t,
			Segs: uint32(segsPerSec * t.Seconds()),
		})
	}
	return out
}

func TestVideoSmoothPlayback(t *testing.T) {
	dur := 20 * sim.Second
	// Delivery at 2× media rate: zero rebuffering.
	progress := steadyProgress(5.0, 1400, dur)
	res := PlayVideo(progress, dur)
	if !res.Started {
		t.Fatal("playback never started")
	}
	if res.RebufferRatio != 0 || res.Stalls != 0 {
		t.Errorf("smooth stream rebuffered: ratio=%v stalls=%d", res.RebufferRatio, res.Stalls)
	}
}

func TestVideoUnderprovisionedStalls(t *testing.T) {
	dur := 30 * sim.Second
	// Delivery at 60% of the media rate: the player must stall often.
	progress := steadyProgress(1.5, 1400, dur)
	res := PlayVideo(progress, dur)
	if !res.Started {
		t.Fatal("playback never started")
	}
	if res.RebufferRatio < 0.2 {
		t.Errorf("rebuffer ratio = %v for a 40%% shortfall", res.RebufferRatio)
	}
	if res.Stalls == 0 {
		t.Error("no stall events recorded")
	}
}

func TestVideoOutageCausesRebuffer(t *testing.T) {
	dur := 24 * sim.Second
	// Delivery barely above the media rate, with an 8-second hole in the
	// middle (a failed handover): the thin buffer lead cannot cover it.
	var progress []transport.ProgressSample
	segsPerSec := 2.75 * 1e6 / 8 / 1400
	for t := 50 * sim.Millisecond; t <= dur; t += 50 * sim.Millisecond {
		eff := t
		switch {
		case t > 8*sim.Second && t < 16*sim.Second:
			eff = 8 * sim.Second
		case t >= 16*sim.Second:
			eff = t - 8*sim.Second
		}
		progress = append(progress, transport.ProgressSample{At: t, Segs: uint32(segsPerSec * eff.Seconds())})
	}
	res := PlayVideo(progress, dur)
	if res.Stalls == 0 {
		t.Fatal("outage did not stall playback")
	}
	// Stall should be roughly the hole minus the buffered lead.
	if res.StallTime < 3*sim.Second || res.StallTime > 9*sim.Second {
		t.Errorf("stall time = %v", res.StallTime)
	}
}

func TestVideoNeverStarts(t *testing.T) {
	res := PlayVideo(nil, 10*sim.Second)
	if res.Started || res.RebufferRatio != 0 {
		t.Errorf("empty stream: %+v", res)
	}
	if r := PlayVideo(nil, 0); r.Started {
		t.Error("zero duration should be inert")
	}
}

func TestConferenceConfigs(t *testing.T) {
	sk := SkypeLike()
	hg := HangoutsLike()
	if sk.PacketsPerFrame() != 10 {
		t.Errorf("skype packets/frame = %d", sk.PacketsPerFrame())
	}
	if hg.PacketsPerFrame() != 3 {
		t.Errorf("hangouts packets/frame = %d", hg.PacketsPerFrame())
	}
	// Rates are in a plausible video-call band.
	if sk.RateMbps() < 2 || sk.RateMbps() > 4 {
		t.Errorf("skype rate = %v", sk.RateMbps())
	}
	if hg.RateMbps() < 1 || hg.RateMbps() > 3 {
		t.Errorf("hangouts rate = %v", hg.RateMbps())
	}
	if (ConferenceConfig{FrameBytes: 1, PacketBytes: 1200}).PacketsPerFrame() != 1 {
		t.Error("tiny frame should be one packet")
	}
}

func TestConferencePerfectDelivery(t *testing.T) {
	cfg := HangoutsLike()
	dur := 5 * sim.Second
	k := cfg.PacketsPerFrame()
	frameInterval := sim.Second / sim.Time(cfg.FPS)
	var arrivals []transport.Arrival
	for f := 0; f < int(dur/frameInterval); f++ {
		base := sim.Time(f) * frameInterval
		for p := 0; p < k; p++ {
			arrivals = append(arrivals, transport.Arrival{
				At:  base + 10*sim.Millisecond,
				Seq: uint32(f*k + p),
			})
		}
	}
	res := AnalyzeConference(cfg, arrivals, dur)
	if len(res.PerSecondFPS) != 5 {
		t.Fatalf("seconds = %d", len(res.PerSecondFPS))
	}
	for i, fps := range res.PerSecondFPS {
		if fps < float64(cfg.FPS)-1 {
			t.Errorf("second %d: fps = %v, want ≈ %d", i, fps, cfg.FPS)
		}
	}
	cdf := res.CDF()
	if cdf.Quantile(0.5) < float64(cfg.FPS)-1 {
		t.Error("CDF median below nominal fps")
	}
}

func TestConferenceLossDropsFrames(t *testing.T) {
	cfg := SkypeLike()
	dur := 4 * sim.Second
	k := cfg.PacketsPerFrame()
	frameInterval := sim.Second / sim.Time(cfg.FPS)
	var arrivals []transport.Arrival
	for f := 0; f < int(dur/frameInterval); f++ {
		base := sim.Time(f) * frameInterval
		for p := 0; p < k; p++ {
			// Drop one fragment of every even frame.
			if f%2 == 0 && p == k-1 {
				continue
			}
			arrivals = append(arrivals, transport.Arrival{At: base + 5*sim.Millisecond, Seq: uint32(f*k + p)})
		}
	}
	res := AnalyzeConference(cfg, arrivals, dur)
	for i, fps := range res.PerSecondFPS {
		if fps > float64(cfg.FPS)/2+1 || fps < float64(cfg.FPS)/2-2 {
			t.Errorf("second %d: fps = %v, want ≈ %d", i, fps, cfg.FPS/2)
		}
	}
}

func TestConferenceLateFramesDontCount(t *testing.T) {
	cfg := HangoutsLike()
	dur := 2 * sim.Second
	k := cfg.PacketsPerFrame()
	frameInterval := sim.Second / sim.Time(cfg.FPS)
	var arrivals []transport.Arrival
	for f := 0; f < int(dur/frameInterval); f++ {
		base := sim.Time(f) * frameInterval
		for p := 0; p < k; p++ {
			// All fragments arrive one second late.
			arrivals = append(arrivals, transport.Arrival{At: base + sim.Second, Seq: uint32(f*k + p)})
		}
	}
	res := AnalyzeConference(cfg, arrivals, dur)
	for i, fps := range res.PerSecondFPS {
		if fps != 0 {
			t.Errorf("second %d: late frames counted (fps=%v)", i, fps)
		}
	}
}

func TestWebConfig(t *testing.T) {
	if PageSegments != 1500 {
		t.Errorf("2.1 MB at 1400 B = %d segments, want 1500", PageSegments)
	}
	if got := PageLoadSeconds(sim.Second, 5*sim.Second, true); got != 4 {
		t.Errorf("load time = %v", got)
	}
	if got := PageLoadSeconds(sim.Second, 0, false); !math.IsInf(got, 1) {
		t.Errorf("incomplete load = %v, want +Inf", got)
	}
}
