package phy_test

import (
	"fmt"

	"wgtt/internal/phy"
)

// Aggregation amortizes the fixed preamble: twenty 1,500-byte MPDUs cost
// barely more airtime per byte than one.
func ExampleAMPDUDuration() {
	one := phy.AMPDUDuration(7, []int{1500})
	var sizes []int
	for i := 0; i < 20; i++ {
		sizes = append(sizes, 1500)
	}
	twenty := phy.AMPDUDuration(7, sizes)
	fmt.Printf("1 MPDU: %v, 20 MPDUs: %v (%.1fx airtime for 20x data)\n",
		one, twenty, float64(twenty)/float64(one))
	// Output:
	// 1 MPDU: 208.8us, 20 MPDUs: 3.438ms (16.5x airtime for 20x data)
}
