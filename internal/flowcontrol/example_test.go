package flowcontrol

import (
	"fmt"

	"repro/internal/cell"
)

// Figure 4's protocol on one link: a circuit with a round-trip of credits
// runs at full link rate and never drops a cell, even when its output is
// congested for a while.
func ExampleLink() {
	l, _ := NewLink(5) // 5-slot propagation each way
	rtt := int(l.RoundTripSlots())
	fmt.Println("round trip:", rtt, "slots")

	_ = l.OpenCircuit(1, rtt) // the paper's sizing rule
	for i := 0; i < 100; i++ {
		_ = l.Inject(1, cell.Cell{})
	}
	// Congest the output for a while: cells accumulate downstream but
	// never beyond the allocation.
	l.blocked[1] = true
	for s := 0; s < 50; s++ {
		l.Step()
	}
	delete(l.blocked, 1)
	delivered := 0
	for s := 0; s < 200; s++ {
		delivered += len(l.Step())
	}
	st := l.Stats()
	fmt.Println("delivered:", delivered)
	fmt.Printf("peak buffer occupancy: %d of %d allocated\n", st.MaxOccupancy[1], rtt)
	fmt.Println("drops: 0 by construction — cells wait for credit instead")
	// Output:
	// round trip: 11 slots
	// delivered: 100
	// peak buffer occupancy: 11 of 11 allocated
	// drops: 0 by construction — cells wait for credit instead
}
