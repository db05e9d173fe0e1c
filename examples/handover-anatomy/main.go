// Handover anatomy: a millisecond-level view of WGTT doing its job. One
// client drives past two cells while a UDP stream flows; we print every
// switching-protocol event (stop → start → ack), the per-AP windowed
// median ESNR around each switch, and the queue state that the start(c, k)
// index hands from the old AP to the new one.
//
//	go run ./examples/handover-anatomy
package main

import (
	"fmt"
	"log"

	"wgtt/internal/controller"
	"wgtt/internal/core"
	"wgtt/internal/sim"
)

func main() {
	s := core.DriveScenario(core.ModeWGTT, 15, 3)
	s.Duration = 6 * sim.Second // the first two cells are plenty
	n, err := core.Build(s)
	if err != nil {
		log.Fatal(err)
	}
	clientMAC := n.Clients[0].Config().MAC

	// n.OnSwitch, not n.Ctl.OnSwitch: the controller's own hook is how the
	// network observes switches (channel retune, the trace, this one).
	n.OnSwitch = func(rec controller.SwitchRecord) {
		fmt.Printf("t=%8.3fs  SWITCH AP%d → AP%d  (stop→ack %v, %d stop attempt(s))\n",
			rec.At.Seconds(), rec.From+1, rec.To+1, rec.Duration, rec.Attempts)
		fmt.Printf("             medians:")
		for apID := range n.APs {
			if med, ok := n.Ctl.MedianESNR(clientMAC, apID); ok {
				fmt.Printf("  AP%d=%.1fdB", apID+1, med)
			}
		}
		fmt.Println()
		fmt.Printf("             queues:  old AP backlog %d pkts (drains its NIC queue), new AP resumes mid-ring\n",
			n.APs[rec.From].QueueDepth(clientMAC))
	}

	rx := n.Attach([]core.Load{{RateMbps: 30}}).UDP[0].Receiver

	n.Every(sim.Second, func(at sim.Time) {
		best, esnr := n.BestESNRAP(0, at)
		fmt.Printf("t=%8.3fs  position x=%.1fm  serving=AP%d  oracle=AP%d (%.1f dB)  rx=%d pkts\n",
			at.Seconds(), n.Clients[0].Station().Endpoint.Position(at).X,
			n.ServingAP(0)+1, best+1, esnr, rx.Received)
	})

	n.Run()

	fmt.Printf("\n%d switches in %v; controller stats: %d CSI reports, %d stop retransmissions\n",
		len(n.Ctl.History), s.Duration, n.Ctl.Stats.CSIReports, n.Ctl.Stats.StopRetransmits)
}
