package schedule

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
// builds 720 of these (16 ports, 128 slots) at boot and keeps them live, and
// most never hold a reservation. An empty frame has no slot arrays and no
// free-slot sets; slices of per-slot rows cost ≈33 KiB each, and the flat
// arrays allocated at New ≈11 KiB.
func TestNewFootprint(t *testing.T) {
	per := allocatedPer(t, func() {
		s, err := New(16, 128)
		if err != nil {
			t.Fatal(err)
		}
		footprintSink = s
	})
	if per > 1<<10 {
		t.Errorf("New(16, 128) allocates %d bytes, budget %d", per, 1<<10)
	}
}

// TestFirstInsertFootprint pins what a frame costs once it holds a cell: the
// first insertion allocates the flat slot arrays and free-slot sets, once.
func TestFirstInsertFootprint(t *testing.T) {
	per := allocatedPer(t, func() {
		s, err := New(16, 128)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Insert(3, 5); err != nil {
			t.Fatal(err)
		}
		footprintSink = s
	})
	if per > 11<<10 {
		t.Errorf("New(16, 128) and one Insert allocate %d bytes, budget %d", per, 11<<10)
	}
}

// allocatedPer returns the bytes one call of f allocates, averaged over 64
// calls.
func allocatedPer(t *testing.T, f func()) uint64 {
	t.Helper()
	const reps = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / reps
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

// TestUntouchedFrameMatchesEmptied checks that a frame that never held a
// cell, which has no slot arrays, reads the same as one that held cells and
// gave them all back: every accessor, Validate, Reservations, BusySlots,
// Relayout under each layout, FromAssignments with no assignment, and the
// slot the next insertion takes.
func TestUntouchedFrameMatchesEmptied(t *testing.T) {
	for _, dims := range [][2]int{{4, 6}, {16, 128}, {70, 100}} {
		n, slots := dims[0], dims[1]
		fresh, err := New(n, slots)
		if err != nil {
			t.Fatal(err)
		}
		emptied, err := New(n, slots)
		if err != nil {
			t.Fatal(err)
		}
		// Two reservations per input, each half a frame: rows and columns
		// fill, so later cells take the swap path.
		for i := 0; i < n; i++ {
			for _, d := range []int{1, 2} {
				if _, err := emptied.InsertK(i, (i+d)%n, slots/2); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < n; i++ {
			for _, d := range []int{1, 2} {
				for c := 0; c < slots/2; c++ {
					if err := emptied.Remove(i, (i+d)%n); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if fresh.outOf != nil || emptied.outOf == nil {
			t.Fatalf("%dx%d: slot arrays: untouched %v, emptied %v; want only the emptied frame's",
				n, slots, fresh.outOf != nil, emptied.outOf != nil)
		}
		if err := sameFrame(fresh, emptied); err != nil {
			t.Fatalf("%dx%d: %v", n, slots, err)
		}
		for _, f := range []*Schedule{fresh, emptied} {
			if err := f.Validate(); err != nil {
				t.Fatalf("%dx%d: %v", n, slots, err)
			}
			if got := f.BusySlots(); got != 0 {
				t.Fatalf("%dx%d: BusySlots = %d", n, slots, got)
			}
			if err := f.Remove(0, 1); !errors.Is(err, ErrNotFound) {
				t.Fatalf("%dx%d: Remove on an empty frame: %v", n, slots, err)
			}
		}
		for _, l := range []Layout{LayoutAsInserted, LayoutPacked, LayoutSpread} {
			a, err := fresh.Relayout(l)
			if err != nil {
				t.Fatal(err)
			}
			b, err := emptied.Relayout(l)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameFrame(a, b); err != nil {
				t.Fatalf("%dx%d %v: %v", n, slots, l, err)
			}
			if err := sameFrame(a, fresh); err != nil {
				t.Fatalf("%dx%d %v against the untouched frame: %v", n, slots, l, err)
			}
		}
		none, err := FromAssignments(n, slots, func(int, int) int { return -1 })
		if err != nil {
			t.Fatal(err)
		}
		if err := sameFrame(none, emptied); err != nil {
			t.Fatalf("%dx%d FromAssignments: %v", n, slots, err)
		}
		trFresh, errFresh := fresh.Insert(n-1, 0)
		trEmptied, errEmptied := emptied.Insert(n-1, 0)
		if errFresh != nil || errEmptied != nil || !reflect.DeepEqual(trFresh, trEmptied) {
			t.Fatalf("%dx%d: next insertion %+v (%v), emptied %+v (%v)", n, slots, trFresh, errFresh, trEmptied, errEmptied)
		}
		if err := sameFrame(fresh, emptied); err != nil {
			t.Fatalf("%dx%d after the next insertion: %v", n, slots, err)
		}
	}
}

// sameFrame reports the first read accessor on which a and b differ.
func sameFrame(a, b *Schedule) error {
	if a.N() != b.N() || a.Slots() != b.Slots() || a.Cells() != b.Cells() {
		return fmt.Errorf("dimensions %dx%d, %d cells; other %dx%d, %d cells", a.N(), a.Slots(), a.Cells(), b.N(), b.Slots(), b.Cells())
	}
	n, slots := a.N(), a.Slots()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ra, ca := a.Load(i, j)
			rb, cb := b.Load(i, j)
			if ra != rb || ca != cb {
				return fmt.Errorf("Load(%d, %d) = %d, %d; other %d, %d", i, j, ra, ca, rb, cb)
			}
		}
	}
	for t := -1; t <= slots; t++ {
		for i := -1; i <= n; i++ {
			if x, y := a.At(t, i), b.At(t, i); x != y {
				return fmt.Errorf("At(%d, %d) = %d, other %d", t, i, x, y)
			}
			if x, y := a.InputAt(t, i), b.InputAt(t, i); x != y {
				return fmt.Errorf("InputAt(%d, %d) = %d, other %d", t, i, x, y)
			}
			for _, j := range []int{i, i + 1} {
				if x, y := a.FreePairs(t, i, j), b.FreePairs(t, i, j); x != y {
					return fmt.Errorf("FreePairs(%d, %d, %d) = %v, other %v", t, i, j, x, y)
				}
			}
		}
		if t < 0 || t >= slots {
			continue
		}
		if x, y := a.CountAt(t), b.CountAt(t); x != y {
			return fmt.Errorf("CountAt(%d) = %d, other %d", t, x, y)
		}
		if x, y := a.InputsAt(t), b.InputsAt(t); !reflect.DeepEqual(x, y) {
			return fmt.Errorf("InputsAt(%d) = %x, other %x", t, x, y)
		}
	}
	if x, y := a.Reservations(), b.Reservations(); !reflect.DeepEqual(x, y) {
		return fmt.Errorf("Reservations = %v, other %v", x, y)
	}
	if x, y := a.BusySlots(), b.BusySlots(); x != y {
		return fmt.Errorf("BusySlots = %d, other %d", x, y)
	}
	return nil
}
