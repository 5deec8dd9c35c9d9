package schedule

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// build constructs a schedule by placing connections directly (test-only
// back door; production code always goes through Insert).
func build(t *testing.T, n, slots int, conns map[int][]Conn) *Schedule {
	t.Helper()
	s, err := New(n, slots)
	if err != nil {
		t.Fatal(err)
	}
	for slot, cs := range conns {
		for _, c := range cs {
			s.place(slot, c.Input, c.Output)
			s.rowLoad[c.Input]++
			s.colLoad[c.Output]++
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("build: %v", err)
	}
	return s
}

// figure2 is the exact schedule of Figure 2, 0-indexed: slot 0 carries
// 1→3, 2→1, 3→2; slot 1 carries 1→4, 2→1, 3→2, 4→3; slot 2 carries 1→2,
// 3→4, 4→1 (all 1-indexed in the paper).
func figure2(t *testing.T) *Schedule {
	return build(t, 4, 3, map[int][]Conn{
		0: {{0, 2}, {1, 0}, {2, 1}},
		1: {{0, 3}, {1, 0}, {2, 1}, {3, 2}},
		2: {{0, 1}, {2, 3}, {3, 0}},
	})
}

func TestFigure2Schedule(t *testing.T) {
	s := figure2(t)
	// The reservation matrix of Figure 2's top table.
	want := [][]int{
		{0, 1, 1, 1},
		{2, 0, 0, 0},
		{0, 2, 0, 1},
		{1, 0, 1, 0},
	}
	got := s.Reservations()
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Errorf("reservations[%d][%d] = %d, want %d", i, j, got[i][j], want[i][j])
			}
		}
	}
	// Paper: "a best-effort cell can be transmitted from input 2 to
	// output 3 during the third slot" (1-indexed) = (1,2) in slot 2.
	if !s.FreePairs(2, 1, 2) {
		t.Error("Figure 2: input 2/output 3 should be free in slot 3 for best-effort")
	}
}

// Figure 3: adding the reservation 4→3 (0-indexed 3→2) to the Figure 2
// schedule terminates after exactly 3 steps, using p = slot 1 and
// q = slot 3 (0-indexed 0 and 2).
func TestFigure3InsertTrace(t *testing.T) {
	s := figure2(t)
	tr, err := s.Insert(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Steps != 3 {
		t.Fatalf("insertion took %d steps, Figure 3 shows 3", tr.Steps)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Final state of Figure 3 (0-indexed): slot p(=0) holds 1→2, 2→1,
	// 3→4, 4→3; slot q(=2) holds 1→3, 3→2, 4→1; slot 1 is untouched.
	wantSlot0 := map[int]int{0: 1, 1: 0, 2: 3, 3: 2}
	for i, j := range wantSlot0 {
		if got := s.At(0, i); got != j {
			t.Errorf("slot p: input %d -> %d, want %d", i, got, j)
		}
	}
	wantSlot2 := map[int]int{0: 2, 2: 1, 3: 0}
	for i, j := range wantSlot2 {
		if got := s.At(2, i); got != j {
			t.Errorf("slot q: input %d -> %d, want %d", i, got, j)
		}
	}
	if s.At(2, 1) != -1 {
		t.Errorf("slot q: input 2 should be free, got %d", s.At(2, 1))
	}
	wantSlot1 := map[int]int{0: 3, 1: 0, 2: 1, 3: 2}
	for i, j := range wantSlot1 {
		if got := s.At(1, i); got != j {
			t.Errorf("middle slot changed: input %d -> %d, want %d", i, got, j)
		}
	}
	// The move list reproduces Figure 3's italicized placements.
	wantMoves := []Conn{{3, 2}, {0, 2}, {0, 1}, {2, 1}, {2, 3}}
	if len(tr.Moves) != len(wantMoves) {
		t.Fatalf("got %d moves %v, want %d", len(tr.Moves), tr.Moves, len(wantMoves))
	}
	for k, m := range tr.Moves {
		if m.Conn != wantMoves[k] {
			t.Errorf("move %d = %v, want %v", k, m.Conn, wantMoves[k])
		}
	}
}

func TestInsertFastPath(t *testing.T) {
	s, err := New(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Insert(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Steps != 1 || len(tr.Moves) != 1 || tr.Moves[0].Displaced != nil {
		t.Fatalf("empty-schedule insert trace %+v", tr)
	}
	if s.At(0, 0) != 0 {
		t.Fatal("reservation not placed")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertRejectsOvercommit(t *testing.T) {
	s, err := New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertK(0, 0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(0, 1); !errors.Is(err, ErrOvercommit) {
		t.Fatalf("row overcommit err = %v", err)
	}
	if _, err := s.Insert(1, 0); !errors.Is(err, ErrOvercommit) {
		t.Fatalf("col overcommit err = %v", err)
	}
	if _, err := s.Insert(5, 0); !errors.Is(err, ErrBadPort) {
		t.Fatalf("bad port err = %v", err)
	}
}

func TestRemove(t *testing.T) {
	s := figure2(t)
	if err := s.Remove(1, 0); err != nil { // 2→1 appears twice
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.Reservations()[1][0]; got != 1 {
		t.Fatalf("after remove, reservation = %d, want 1", got)
	}
	if err := s.Remove(1, 0); err != nil { // the second cell
		t.Fatal(err)
	}
	if err := s.Remove(1, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("remove absent err = %v", err)
	}
	if err := s.Remove(9, 0); !errors.Is(err, ErrBadPort) {
		t.Fatalf("remove bad port err = %v", err)
	}
}

// Slepian–Duguid theorem: ANY reservation set that does not over-commit a
// link is schedulable. Generate random admissible matrices and insert every
// cell; insertion must always succeed and stay within N steps per cell.
func TestSlepianDuguidAlwaysSchedulable(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(15)
		frame := 1 + rng.Intn(24)
		s, err := New(n, frame)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]int, n)
		cols := make([]int, n)
		inserted := 0
		for attempts := 0; attempts < 8*n*frame; attempts++ {
			i := rng.Intn(n)
			j := rng.Intn(n)
			if rows[i] >= frame || cols[j] >= frame {
				continue
			}
			tr, err := s.Insert(i, j)
			if err != nil {
				t.Fatalf("trial %d (n=%d frame=%d): admissible insert %d->%d failed: %v",
					trial, n, frame, i, j, err)
			}
			if tr.Steps > n {
				t.Fatalf("trial %d: insertion took %d steps, theorem bounds it by N=%d",
					trial, tr.Steps, n)
			}
			rows[i]++
			cols[j]++
			inserted++
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if inserted == 0 {
			t.Fatalf("trial %d inserted nothing", trial)
		}
	}
}

// The paper: insertion time is linear in switch size and independent of
// frame size. Verify the step bound holds at wildly different frame sizes.
func TestInsertStepsIndependentOfFrameSize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, frame := range []int{8, 64, DefaultFrameSlots} {
		s, err := New(8, frame)
		if err != nil {
			t.Fatal(err)
		}
		maxSteps := 0
		// Fill to near capacity.
		for k := 0; k < 8*frame-8; k++ {
			i, j := rng.Intn(8), rng.Intn(8)
			if s.rowLoad[i] >= frame || s.colLoad[j] >= frame {
				continue
			}
			tr, err := s.Insert(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Steps > maxSteps {
				maxSteps = tr.Steps
			}
		}
		if maxSteps > 8 {
			t.Errorf("frame %d: max steps %d exceeds N=8", frame, maxSteps)
		}
	}
}

func TestFullPermutationLoad(t *testing.T) {
	// Fill the schedule completely: every input sends every slot.
	const n, frame = 6, 10
	s, err := New(n, frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			k := frame / n
			if (i+j)%n < frame%n {
				k++
			}
			if _, err := s.InsertK(i, j, k); err != nil {
				t.Fatalf("InsertK(%d,%d,%d): %v", i, j, k, err)
			}
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = s.Validate() }); allocs != 0 {
		t.Errorf("Validate allocates %.0f times", allocs)
	}
	// Every slot must be a full permutation now.
	for t2 := 0; t2 < frame; t2++ {
		if got := len(s.SlotConns(t2)); got != n {
			t.Fatalf("slot %d has %d conns, want %d", t2, got, n)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 5); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := New(4, 0); err == nil {
		t.Error("slots=0 accepted")
	}
	if _, err := New(math.MaxInt16+1, 1); err == nil {
		t.Error("n beyond a 16-bit port number accepted")
	}
}

func TestAtBounds(t *testing.T) {
	s, _ := New(4, 4)
	if s.At(-1, 0) != -1 || s.At(0, -1) != -1 || s.At(9, 0) != -1 || s.At(0, 9) != -1 {
		t.Error("out-of-range At should be -1")
	}
	if s.InputAt(-1, 0) != -1 || s.InputAt(0, 9) != -1 {
		t.Error("out-of-range InputAt should be -1")
	}
	if s.FreePairs(-1, 0, 0) || s.FreePairs(0, -1, 0) || s.FreePairs(0, 0, 99) {
		t.Error("out-of-range FreePairs should be false")
	}
}

// Property: a random sequence of admissible inserts and removes keeps the
// schedule valid and the reservation matrix consistent.
func TestQuickInsertRemoveConsistent(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const n, frame = 4, 6
		s, err := New(n, frame)
		if err != nil {
			return false
		}
		want := [4][4]int{}
		for _, op := range ops {
			i := int(op>>4) % n
			j := int(op>>2) % n
			if op&1 == 0 {
				if s.rowLoad[i] < frame && s.colLoad[j] < frame {
					if _, err := s.Insert(i, j); err != nil {
						return false
					}
					want[i][j]++
				}
			} else {
				if want[i][j] > 0 {
					if err := s.Remove(i, j); err != nil {
						return false
					}
					want[i][j]--
				}
			}
			_ = rng
		}
		if s.Validate() != nil {
			return false
		}
		got := s.Reservations()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got[i][j] != want[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestValidateCatchesSlotSetDrift breaks the per-slot connection count, the
// connected-input bitset and the per-port free-slot sets one way at a time:
// Validate must notice each, so the switch's reliance on CountAt/InputsAt and
// insertion's reliance on the free sets are checked wherever Validate runs.
func TestValidateCatchesSlotSetDrift(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(s *Schedule)
	}{
		{"count too high", func(s *Schedule) { s.count[0]++ }},
		{"count too low", func(s *Schedule) { s.count[1]-- }},
		{"connected input missing from the set", func(s *Schedule) { s.inputs[0] &^= 1 << 1 }},
		{"idle input in the set", func(s *Schedule) { s.inputs[2*s.words] |= 1 << 1 }},
		{"input beyond n in the set", func(s *Schedule) { s.inputs[0] |= 1 << 40 }},
		{"frame total drifted", func(s *Schedule) { s.total++ }},
		{"busy slot marked free", func(s *Schedule) { s.freeIn[0] |= 1 << 0 }},   // input 0 sends in slot 0
		{"free slot marked busy", func(s *Schedule) { s.freeOut[2] &^= 1 << 2 }}, // output 2 idles in slot 2
		{"free bit past the frame", func(s *Schedule) { s.freeIn[1] |= 1 << 5 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := figure2(t)
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			for slot := 0; slot < s.Slots(); slot++ {
				if got := len(s.SlotConns(slot)); s.CountAt(slot) != got {
					t.Fatalf("slot %d: CountAt = %d, %d connections", slot, s.CountAt(slot), got)
				}
			}
			tc.mutate(s)
			if err := s.Validate(); err == nil {
				t.Fatal("violation went undetected")
			}
		})
	}
}

// TestNewFootprint pins what one empty frame costs: fabric_sparse's LAN
// builds 720 of these (16 ports, 128 slots) at boot and keeps them live.
// Slices of per-slot rows cost ≈33 KiB each.
func TestNewFootprint(t *testing.T) {
	const reps = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		s, err := New(16, 128)
		if err != nil {
			t.Fatal(err)
		}
		footprintSink = s
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / reps; per > 11<<10 {
		t.Errorf("New(16, 128) allocates %d bytes, budget %d", per, 11<<10)
	}
}

var footprintSink *Schedule

func BenchmarkSlepianDuguidInsert16(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s, err := New(16, DefaultFrameSlots)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in, out := rng.Intn(16), rng.Intn(16)
		if s.rowLoad[in] >= s.slots || s.colLoad[out] >= s.slots {
			// Reset when full.
			s, _ = New(16, DefaultFrameSlots)
		}
		if _, err := s.Insert(in, out); err != nil {
			b.Fatal(err)
		}
	}
}
