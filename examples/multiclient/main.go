// Multiclient: the three two-car driving patterns of the paper's Fig. 19 —
// following, parallel, opposing — each with a UDP download per car, on both
// systems, showing how WGTT's uplink diversity and per-client switching
// hold up under inter-vehicle contention and scattering.
//
//	go run ./examples/multiclient
package main

import (
	"fmt"
	"log"

	"wgtt/internal/core"
	"wgtt/internal/mobility"
)

func main() {
	patterns := []mobility.Pattern{mobility.Following, mobility.Parallel, mobility.Opposing}
	fmt.Printf("%-10s  %-18s  %-18s\n", "pattern", "WGTT (per client)", "Enh-802.11r (per client)")
	for _, pat := range patterns {
		var cells [2]string
		for mi, mode := range []core.Mode{core.ModeWGTT, core.ModeBaseline} {
			s := core.MultiClientScenario(mode, pat, 2, 15, 11)
			n, err := core.Build(s)
			if err != nil {
				log.Fatal(err)
			}
			d := n.Attach(core.Loads(2, core.Load{RateMbps: 15}))
			n.Run()
			var total float64
			for _, o := range d.Outcomes() {
				total += o.Mbps
			}
			cells[mi] = fmt.Sprintf("%.2f Mb/s", total/2)
		}
		fmt.Printf("%-10s  %-18s  %-18s\n", pat, cells[0], cells[1])
	}
}
