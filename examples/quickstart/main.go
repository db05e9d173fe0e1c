// Quickstart: build the eight-AP WGTT testbed, drive one client past it at
// 15 mph with a bulk TCP download, and print what happened.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"wgtt/internal/core"
	"wgtt/internal/sim"
)

func main() {
	// A Scenario describes everything: the system under test, the road,
	// the client's drive, and the radio environment.
	scenario := core.DriveScenario(core.ModeWGTT, 15 /* mph */, 42 /* seed */)

	// Build assembles the radio channel, the 802.11 MAC, the eight APs,
	// the controller, and the client into a runnable network.
	n, err := core.Build(scenario)
	if err != nil {
		log.Fatal(err)
	}

	// Put a bulk TCP download from the content server on client 0.
	drive := n.Attach([]core.Load{{TCP: true}})

	// Watch the controller's millisecond-level switching while driving.
	n.Every(sim.Second, func(at sim.Time) {
		fmt.Printf("t=%4.1fs  serving AP%d  delivered %.1f MB\n",
			at.Seconds(), n.ServingAP(0)+1,
			float64(drive.TCP[0].Receiver.DeliveredBytes)/1e6)
	})

	n.Run()

	fmt.Printf("\ndrive complete: %.2f Mb/s TCP goodput over %v\n", drive.Outcome(0).Mbps, scenario.Duration)
	fmt.Printf("switches: %d (the controller moved the client between APs %0.1f times/s)\n",
		len(n.Ctl.History), float64(len(n.Ctl.History))/scenario.Duration.Seconds())
	uniq, dup := n.Ctl.ClientUplinkCounts(n.Clients[0].Config().MAC)
	fmt.Printf("uplink de-dup: %d unique, %d duplicates suppressed\n", uniq, dup)
}
