package switchnode

import (
	"reflect"
	"testing"

	"repro/internal/cell"
	"repro/internal/matching"
	"repro/internal/sched"
)

func TestQuiescentTracksBuffersAndFrame(t *testing.T) {
	s := newSwitch(t, Config{N: 4, Seed: 1, FrameSlots: 8})
	if !s.Quiescent() || s.Buffered() != 0 {
		t.Fatalf("fresh switch not quiescent: buffered=%d", s.Buffered())
	}
	// Best-effort cell makes it non-quiescent until it departs.
	if !s.EnqueueBestEffort(0, cell.Cell{VC: 1}, 1) {
		t.Fatal("enqueue rejected")
	}
	if s.Quiescent() || s.Buffered() != 1 {
		t.Fatalf("buffered cell not seen: buffered=%d", s.Buffered())
	}
	s.Step()
	if !s.Quiescent() {
		t.Fatal("still non-quiescent after the cell departed")
	}
	// A frame reservation keeps the switch non-quiescent even with no
	// cells (its reserved slots fire every frame).
	if err := s.Reserve(2, 3, 1); err != nil {
		t.Fatal(err)
	}
	if s.Quiescent() {
		t.Fatal("quiescent despite a frame reservation")
	}
	s.Unreserve(2, 3, 1)
	if !s.Quiescent() {
		t.Fatal("not quiescent after unreserve")
	}
	// Guaranteed cells and purges.
	if !s.EnqueueGuaranteed(1, cell.Cell{VC: 9}, 2) {
		t.Fatal("guaranteed enqueue rejected")
	}
	if s.Quiescent() {
		t.Fatal("quiescent despite a buffered guaranteed cell")
	}
	if got := s.PurgeVC(9); got != 1 {
		t.Fatalf("PurgeVC = %d, want 1", got)
	}
	if !s.Quiescent() {
		t.Fatal("not quiescent after purge")
	}
	// ResetFrame clears reservations.
	if err := s.Reserve(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.ResetFrame(); err != nil {
		t.Fatal(err)
	}
	if !s.Quiescent() {
		t.Fatal("not quiescent after ResetFrame")
	}
}

// TestStepIdleMatchesStepWhenQuiescent pins the idle-skip contract: on a
// quiescent switch, StepIdle and a full Step are indistinguishable — same
// slot clock, same stats, no departures, and identical behavior afterwards
// (including the matcher's private randomness, which a quiescent Step must
// not consume).
func TestStepIdleMatchesStepWhenQuiescent(t *testing.T) {
	mk := func() *Switch {
		s := newSwitch(t, Config{N: 4, Seed: 42, FrameSlots: 8})
		// Warm up with real traffic so scheduler state is non-trivial.
		s.EnqueueBestEffort(0, cell.Cell{VC: 1}, 1)
		s.EnqueueBestEffort(1, cell.Cell{VC: 2}, 1)
		s.EnqueueBestEffort(2, cell.Cell{VC: 3}, 1)
		for i := 0; i < 4; i++ {
			s.Step()
		}
		if !s.Quiescent() {
			t.Fatal("warmup did not drain")
		}
		return s
	}
	full, idle := mk(), mk()
	// Advance 10 idle slots, one with Step, one with StepIdle.
	for k := 0; k < 10; k++ {
		if deps := full.Step(); deps != nil {
			t.Fatalf("quiescent Step produced departures: %+v", deps)
		}
		idle.StepIdle()
	}
	if full.Slot() != idle.Slot() {
		t.Fatalf("slots diverged: %d vs %d", full.Slot(), idle.Slot())
	}
	if !reflect.DeepEqual(full.Stats(), idle.Stats()) {
		t.Fatalf("stats diverged:\nfull %+v\nidle %+v", full.Stats(), idle.Stats())
	}
	// Now run identical contended traffic through both: if the quiescent
	// Steps had consumed scheduler randomness, the matchings would differ.
	feed := func(s *Switch) []Departure {
		s.EnqueueBestEffort(0, cell.Cell{VC: 10}, 3)
		s.EnqueueBestEffort(1, cell.Cell{VC: 11}, 3)
		s.EnqueueBestEffort(2, cell.Cell{VC: 12}, 3)
		var out []Departure
		for i := 0; i < 6; i++ {
			out = append(out, s.Step()...)
		}
		return out
	}
	df, di := feed(full), feed(idle)
	if !reflect.DeepEqual(df, di) {
		t.Fatalf("post-idle behavior diverged:\nfull %+v\nidle %+v", df, di)
	}
	if !reflect.DeepEqual(full.Stats(), idle.Stats()) {
		t.Fatalf("final stats diverged:\nfull %+v\nidle %+v", full.Stats(), idle.Stats())
	}
}

// countingScheduler counts the matcher calls a switch makes.
type countingScheduler struct {
	sched.Scheduler
	calls int
}

func (c *countingScheduler) Schedule(r *matching.Requests) sched.Result {
	c.calls++
	return c.Scheduler.Schedule(r)
}

// TestStepEmptyReservedCountsLentSlots: a switch with reservations and no
// cell is not quiescent — every reserved slot it steps over is lent to
// best-effort and counted — yet a step of it asks the matcher nothing. Over
// two frames the count is twice the frame's cells.
func TestStepEmptyReservedCountsLentSlots(t *testing.T) {
	m := &countingScheduler{Scheduler: sched.NewPIM(1, 3)}
	s := newSwitch(t, Config{N: 24, FrameSlots: 32, Scheduler: m})
	for _, r := range []struct{ in, out, k int }{{0, 1, 8}, {0, 2, 8}, {5, 1, 3}, {23, 0, 32}, {7, 7, 1}} {
		if err := s.Reserve(r.in, r.out, r.k); err != nil {
			t.Fatal(err)
		}
	}
	if s.Quiescent() {
		t.Fatal("a switch with reservations reads as quiescent")
	}
	for slot := 0; slot < 2*s.Frame().Slots(); slot++ {
		if deps := s.Step(); deps != nil {
			t.Fatalf("slot %d: an empty switch produced departures %+v", slot, deps)
		}
	}
	want := Stats{Slots: 64, GuaranteedSlotsFree: int64(2 * s.Frame().Cells())}
	if want.GuaranteedSlotsFree != 2*(8+8+3+32+1) || s.Stats() != want {
		t.Fatalf("stats = %+v, want %+v", s.Stats(), want)
	}
	if m.calls != 0 {
		t.Fatalf("the matcher was called %d times with nothing to match", m.calls)
	}
}

// TestCheckInvariantCatchesDrift breaks the occupancy bookkeeping one way at
// a time and requires CheckInvariant to notice.
func TestCheckInvariantCatchesDrift(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(s *Switch)
	}{
		{"best-effort bit lost", func(s *Switch) { s.occBE[1] &^= 1 << 1 }},
		{"guaranteed bit lost", func(s *Switch) { s.occGtd[0] &^= 1 << 3 }},
		{"best-effort bit on an empty input", func(s *Switch) { s.occBE[0] |= 1 << 9 }},
		{"guaranteed bit on an empty input", func(s *Switch) { s.occGtd[1] |= 1 << 2 }},
		{"bits of the two classes swapped", func(s *Switch) { s.occBE, s.occGtd = s.occGtd, s.occBE }},
		{"cell count drifted", func(s *Switch) { s.buffered-- }},
		{"cells dropped behind the switch's back", func(s *Switch) { s.be[65].DropAll() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSwitch(t, Config{N: 70, FrameSlots: 8})
			s.EnqueueBestEffort(65, cell.Cell{VC: 1}, 2)
			s.EnqueueBestEffort(65, cell.Cell{VC: 2}, 69)
			s.EnqueueGuaranteed(3, cell.Cell{VC: 3}, 4)
			if err := s.CheckInvariant(); err != nil {
				t.Fatal(err)
			}
			tc.mutate(s)
			if err := s.CheckInvariant(); err == nil {
				t.Fatal("violation went undetected")
			}
		})
	}
}
