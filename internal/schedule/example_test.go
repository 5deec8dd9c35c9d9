package schedule_test

import (
	"fmt"

	"repro/internal/schedule"
)

// The paper's Figure 3: adding the reservation 4→3 to Figure 2's schedule
// takes three Slepian–Duguid steps.
func ExampleSchedule_Insert() {
	s, _ := schedule.New(4, 3)
	// Build Figure 2's schedule (0-indexed) by insertion.
	for _, r := range [][3]int{
		{0, 2, 1}, {1, 0, 2}, {2, 1, 2}, {0, 3, 1}, {3, 2, 1}, {0, 1, 1}, {2, 3, 1}, {3, 0, 1},
	} {
		if _, err := s.InsertK(r[0], r[1], r[2]); err != nil {
			fmt.Println(err)
			return
		}
	}
	tr, err := s.Insert(3, 2) // the paper's "add 4→3"
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("steps: %d\n", tr.Steps)
	for _, m := range tr.Moves {
		fmt.Printf("place %d->%d in slot %d\n", m.Conn.Input+1, m.Conn.Output+1, m.Slot+1)
	}
	// Output:
	// steps: 3
	// place 4->3 in slot 1
	// place 1->3 in slot 3
	// place 1->2 in slot 1
	// place 3->2 in slot 3
	// place 3->4 in slot 1
}
