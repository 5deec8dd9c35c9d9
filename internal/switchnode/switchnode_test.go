package switchnode

import (
	"runtime"
	"testing"

	"repro/internal/cell"
)

func newSwitch(t *testing.T, cfg Config) *Switch {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDefaults(t *testing.T) {
	s := newSwitch(t, Config{N: 16})
	if s.Frame().Slots() != 1024 {
		t.Fatalf("default frame = %d, want 1024", s.Frame().Slots())
	}
}

// TestSwitchNewFootprint pins what a switch costs before it carries a cell:
// fabric_sparse's LAN builds 720 of these (24 ports, 128-slot frames), and
// about 1 % of them ever switch one. The frame's slot arrays, the PIM
// engine and its random source, and the departure list are built on first
// use; built at New they came to ≈29 KB.
func TestSwitchNewFootprint(t *testing.T) {
	const reps = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		footprintSink = newSwitch(t, Config{N: 24, FrameSlots: 128, Seed: int64(i)})
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / reps; per > 8<<10 {
		t.Errorf("New(24 ports, 128 slots) allocates %d bytes, budget %d", per, 8<<10)
	}
}

var footprintSink *Switch

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{N: -1}); err == nil {
		t.Error("negative N accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("zero N accepted: a switch has no default width")
	}
	if _, err := New(Config{N: 4, Discipline: Discipline(42)}); err == nil {
		t.Error("unknown discipline accepted")
	}
	if DisciplineFIFO.String() != "fifo" || DisciplinePerVC.String() != "per-vc" || Discipline(9).String() == "" {
		t.Error("Discipline.String wrong")
	}
}

func TestBestEffortSingleCell(t *testing.T) {
	s := newSwitch(t, Config{N: 4, Seed: 1})
	c := cell.Cell{VC: 7, Stamp: cell.Stamp{EnqueuedAt: 0}}
	if !s.EnqueueBestEffort(2, c, 3) {
		t.Fatal("enqueue rejected")
	}
	deps := s.Step()
	if len(deps) != 1 || deps[0].Output != 3 || deps[0].Cell.VC != 7 || deps[0].Guaranteed {
		t.Fatalf("departures = %+v", deps)
	}
	if got := s.Stats(); got.DepartedBestEffort != 1 || got.ArrivedBestEffort != 1 {
		t.Fatalf("stats = %+v", got)
	}
}

func TestBestEffortContention(t *testing.T) {
	// Two inputs want the same output: exactly one departs per slot.
	s := newSwitch(t, Config{N: 4, Seed: 2})
	s.EnqueueBestEffort(0, cell.Cell{VC: 1}, 2)
	s.EnqueueBestEffort(1, cell.Cell{VC: 2}, 2)
	deps := s.Step()
	if len(deps) != 1 || deps[0].Output != 2 {
		t.Fatalf("slot 1 departures = %+v", deps)
	}
	deps = s.Step()
	if len(deps) != 1 || deps[0].Output != 2 {
		t.Fatalf("slot 2 departures = %+v", deps)
	}
	if s.Step() != nil {
		t.Fatal("slot 3 should be idle")
	}
}

func TestEnqueueOutOfRange(t *testing.T) {
	s := newSwitch(t, Config{N: 4})
	if s.EnqueueBestEffort(-1, cell.Cell{}, 0) || s.EnqueueBestEffort(0, cell.Cell{}, 4) {
		t.Error("out-of-range best-effort accepted")
	}
	if s.EnqueueGuaranteed(9, cell.Cell{}, 0) || s.EnqueueGuaranteed(0, cell.Cell{}, -2) {
		t.Error("out-of-range guaranteed accepted")
	}
}

func TestGuaranteedFollowsFrameSchedule(t *testing.T) {
	s := newSwitch(t, Config{N: 4, FrameSlots: 4, Seed: 3})
	// Reserve 2 cells/frame from input 1 to output 2.
	if err := s.Reserve(1, 2, 2); err != nil {
		t.Fatal(err)
	}
	// Queue 4 guaranteed cells; they should depart at exactly 2 per frame.
	for k := 0; k < 4; k++ {
		if !s.EnqueueGuaranteed(1, cell.Cell{VC: 9, Class: cell.Guaranteed, Stamp: cell.Stamp{Seq: uint64(k)}}, 2) {
			t.Fatal("guaranteed enqueue rejected")
		}
	}
	departedPerFrame := []int{0, 0}
	for frame := 0; frame < 2; frame++ {
		for slot := 0; slot < 4; slot++ {
			for _, d := range s.Step() {
				if !d.Guaranteed || d.Output != 2 {
					t.Fatalf("unexpected departure %+v", d)
				}
				departedPerFrame[frame]++
			}
		}
	}
	if departedPerFrame[0] != 2 || departedPerFrame[1] != 2 {
		t.Fatalf("departures per frame = %v, want [2 2]", departedPerFrame)
	}
	if s.BufferedGuaranteed(1) != 0 {
		t.Fatal("guaranteed cells left behind")
	}
}

func TestBestEffortUsesIdleReservedSlot(t *testing.T) {
	// Paper §4: "best-effort cells can use an allocated slot if no cell
	// from the scheduled virtual circuit is present at the switch."
	s := newSwitch(t, Config{N: 4, FrameSlots: 1, Seed: 4})
	if err := s.Reserve(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	// No guaranteed cell queued; a best-effort cell for the same pair must
	// still flow at full rate.
	s.EnqueueBestEffort(0, cell.Cell{VC: 5}, 1)
	deps := s.Step()
	if len(deps) != 1 || deps[0].Guaranteed {
		t.Fatalf("departures = %+v", deps)
	}
	st := s.Stats()
	if st.GuaranteedSlotsFree != 1 || st.GuaranteedSlotsFired != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGuaranteedPreemptsBestEffort(t *testing.T) {
	// When the guaranteed circuit has a cell, the reserved slot is its.
	s := newSwitch(t, Config{N: 4, FrameSlots: 1, Seed: 5})
	if err := s.Reserve(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	s.EnqueueGuaranteed(0, cell.Cell{VC: 9, Class: cell.Guaranteed}, 1)
	s.EnqueueBestEffort(0, cell.Cell{VC: 5}, 1)
	deps := s.Step()
	if len(deps) != 1 || !deps[0].Guaranteed {
		t.Fatalf("guaranteed cell did not win the reserved slot: %+v", deps)
	}
	// Next slot the best-effort cell goes (slot is reserved but idle).
	deps = s.Step()
	if len(deps) != 1 || deps[0].Guaranteed {
		t.Fatalf("best-effort cell stuck: %+v", deps)
	}
}

func TestGuaranteedAndBestEffortShareSlot(t *testing.T) {
	// Guaranteed on (0->1) and best-effort on (2->3) can cross the fabric
	// in the same slot — the crossbar moves up to N cells in parallel.
	s := newSwitch(t, Config{N: 4, FrameSlots: 1, Seed: 6})
	if err := s.Reserve(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	s.EnqueueGuaranteed(0, cell.Cell{VC: 9, Class: cell.Guaranteed}, 1)
	s.EnqueueBestEffort(2, cell.Cell{VC: 5}, 3)
	deps := s.Step()
	if len(deps) != 2 {
		t.Fatalf("want 2 parallel departures, got %+v", deps)
	}
}

func TestReserveErrors(t *testing.T) {
	s := newSwitch(t, Config{N: 2, FrameSlots: 2})
	if err := s.Reserve(0, 0, 3); err == nil {
		t.Error("overcommitted reserve accepted")
	}
	if err := s.Reserve(0, 0, 2); err != nil {
		t.Fatal(err)
	}
	s.Unreserve(0, 0, 1)
	if got := s.Frame().Reservations()[0][0]; got != 1 {
		t.Fatalf("after unreserve: %d, want 1", got)
	}
	// Unreserve beyond what exists is a no-op.
	s.Unreserve(0, 0, 10)
	if got := s.Frame().Reservations()[0][0]; got != 0 {
		t.Fatalf("after big unreserve: %d, want 0", got)
	}
}

func TestBufferLimitDropsCells(t *testing.T) {
	s := newSwitch(t, Config{N: 2, BufferLimit: 2, Seed: 7})
	for k := 0; k < 5; k++ {
		s.EnqueueBestEffort(0, cell.Cell{VC: 1}, 1)
	}
	st := s.Stats()
	if st.DroppedBestEffort != 3 {
		t.Fatalf("dropped = %d, want 3", st.DroppedBestEffort)
	}
	if s.BufferedBestEffort(0) != 2 {
		t.Fatalf("buffered = %d, want 2", s.BufferedBestEffort(0))
	}
}

func TestFIFODisciplineHoLObservable(t *testing.T) {
	// Input 0 queues [cell->out1, cell->out2]; input 1 queues [cell->out1].
	// With FIFO, in slot 1 only one of the out1 cells goes and input 0's
	// out2 cell is blocked behind its head. With per-VC, the out2 cell
	// departs in slot 1.
	run := func(d Discipline) int {
		s := newSwitch(t, Config{N: 4, Discipline: d, Seed: 8})
		s.EnqueueBestEffort(0, cell.Cell{VC: 1}, 1)
		s.EnqueueBestEffort(0, cell.Cell{VC: 2}, 2)
		s.EnqueueBestEffort(1, cell.Cell{VC: 3}, 1)
		return len(s.Step())
	}
	if got := run(DisciplineFIFO); got != 1 {
		t.Fatalf("FIFO slot-1 departures = %d, want 1 (HoL blocking)", got)
	}
	if got := run(DisciplinePerVC); got != 2 {
		t.Fatalf("per-VC slot-1 departures = %d, want 2 (no HoL blocking)", got)
	}
}

func TestOracleBasics(t *testing.T) {
	o := NewOracle(4, 0, 1)
	if !o.Enqueue(cell.Cell{VC: 1}, 2) {
		t.Fatal("enqueue rejected")
	}
	if o.Enqueue(cell.Cell{}, 9) {
		t.Fatal("out-of-range output accepted")
	}
	deps := o.Step()
	if len(deps) != 1 || deps[0].Output != 2 {
		t.Fatalf("departures = %+v", deps)
	}
	if o.Buffered() != 0 {
		t.Fatal("oracle left cells behind")
	}
}

func TestOracleSpeedupLimit(t *testing.T) {
	// k=2: at most 2 cells reach one output queue per slot; one departs,
	// so after one slot with 4 arrivals, 1 departed, 1 queued, 2 backlog.
	o := NewOracle(4, 2, 1)
	for k := 0; k < 4; k++ {
		o.Enqueue(cell.Cell{VC: cell.VCI(k + 1)}, 0)
	}
	deps := o.Step()
	if len(deps) != 1 {
		t.Fatalf("slot 1 departures = %d", len(deps))
	}
	if o.Buffered() != 3 {
		t.Fatalf("buffered = %d, want 3", o.Buffered())
	}
	// Everything drains eventually.
	total := 1
	for i := 0; i < 5; i++ {
		total += len(o.Step())
	}
	if total != 4 {
		t.Fatalf("total departures = %d, want 4", total)
	}
}

func TestPIMQuiescenceOption(t *testing.T) {
	// PIMIterations < 0 runs to quiescence: with all 4 inputs requesting
	// distinct outputs, all 4 depart in one slot regardless of budget.
	s := newSwitch(t, Config{N: 4, PIMIterations: -1, Seed: 9})
	for i := 0; i < 4; i++ {
		s.EnqueueBestEffort(i, cell.Cell{VC: cell.VCI(i + 1)}, (i+1)%4)
	}
	if got := len(s.Step()); got != 4 {
		t.Fatalf("departures = %d, want 4", got)
	}
}

func TestLongRunConservation(t *testing.T) {
	// Cells are never created or destroyed: arrived = departed + buffered
	// + dropped.
	s := newSwitch(t, Config{N: 8, Seed: 10, BufferLimit: 4})
	rngState := int64(12345)
	next := func(mod int64) int64 {
		rngState = rngState*6364136223846793005 + 1442695040888963407
		v := (rngState >> 33) % mod
		if v < 0 {
			v += mod
		}
		return v
	}
	for t2 := 0; t2 < 2000; t2++ {
		for i := 0; i < 8; i++ {
			if next(100) < 60 {
				j := int(next(8))
				s.EnqueueBestEffort(i, cell.Cell{VC: cell.VCI(i*8 + j)}, j)
			}
		}
		s.Step()
	}
	st := s.Stats()
	buffered := int64(0)
	for i := 0; i < 8; i++ {
		buffered += int64(s.BufferedBestEffort(i))
	}
	if st.ArrivedBestEffort != st.DepartedBestEffort+buffered+st.DroppedBestEffort {
		t.Fatalf("conservation violated: arrived=%d departed=%d buffered=%d dropped=%d",
			st.ArrivedBestEffort, st.DepartedBestEffort, buffered, st.DroppedBestEffort)
	}
}
