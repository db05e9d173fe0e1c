// Transit: the commute workloads from the paper's introduction — web
// browsing, HD video streaming, and a video call — each run over both WGTT
// and the Enhanced 802.11r baseline at commuting speed.
//
//	go run ./examples/transit
package main

import (
	"fmt"
	"log"
	"math"

	"wgtt/internal/apps"
	"wgtt/internal/core"
	"wgtt/internal/sim"
)

const speedMPH = 15

func main() {
	for _, mode := range []core.Mode{core.ModeWGTT, core.ModeBaseline} {
		fmt.Printf("=== %v at %d mph ===\n", mode, speedMPH)
		web(mode)
		video(mode)
		call(mode)
		fmt.Println()
	}
}

// web loads the paper's 2.1 MB cached page during the drive.
func web(mode core.Mode) {
	s := core.DriveScenario(mode, speedMPH, 7)
	n, err := core.Build(s)
	if err != nil {
		log.Fatal(err)
	}
	var done sim.Time
	completed := false
	flow := n.AddDownlinkTCP(0, apps.PageSegments, func(at sim.Time) { done, completed = at, true })
	start := sim.Second
	n.Eng.At(start, flow.Sender.Start)
	n.Run()
	lt := apps.PageLoadSeconds(start, done, completed)
	if math.IsInf(lt, 1) {
		fmt.Printf("  web:   2.1 MB page NEVER finished during the drive\n")
	} else {
		fmt.Printf("  web:   2.1 MB page loaded in %.2f s\n", lt)
	}
}

// video streams a 2.5 Mb/s HD video with a 1.5 s pre-buffer.
func video(mode core.Mode) {
	s := core.DriveScenario(mode, speedMPH, 8)
	n, err := core.Build(s)
	if err != nil {
		log.Fatal(err)
	}
	d := n.Attach([]core.Load{{TCP: true, Record: true}})
	n.Run()
	res := apps.PlayVideo(d.TCP[0].Receiver.Progress, s.Duration)
	fmt.Printf("  video: rebuffer ratio %.2f (%d stalls, started=%v)\n",
		res.RebufferRatio, res.Stalls, res.Started)
}

// call runs a bidirectional Hangouts-like video conference.
func call(mode core.Mode) {
	s := core.DriveScenario(mode, speedMPH, 9)
	n, err := core.Build(s)
	if err != nil {
		log.Fatal(err)
	}
	cfg := apps.HangoutsLike()
	down := n.AddDownlinkUDP(0, cfg.RateMbps(), cfg.PacketBytes)
	down.Receiver.Record = true
	down.Sender.Start()
	up := n.AddUplinkUDP(0, cfg.RateMbps(), cfg.PacketBytes)
	up.Sender.Start()
	n.Run()
	res := apps.AnalyzeConference(cfg, down.Receiver.Arrivals, s.Duration)
	cdf := res.CDF()
	fmt.Printf("  call:  delivered fps p50=%.0f p85=%.0f (nominal %d)\n",
		cdf.Quantile(0.5), cdf.Quantile(0.85), cfg.FPS)
}
