package schedule

import (
	"math/rand"
	"testing"
)

// randomSchedule builds a schedule with random admissible reservations
// totalling roughly load×slots×n cells.
func randomSchedule(t *testing.T, rng *rand.Rand, n, slots int, load float64) *Schedule {
	t.Helper()
	s, err := New(n, slots)
	if err != nil {
		t.Fatal(err)
	}
	target := int(load * float64(slots) * float64(n))
	for k := 0; k < target*4 && k < 100000; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if s.rowLoad[i] >= int(load*float64(slots)) || s.colLoad[j] >= int(load*float64(slots)) {
			continue
		}
		if _, err := s.Insert(i, j); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func sameReservations(a, b *Schedule) bool {
	ra, rb := a.Reservations(), b.Reservations()
	for i := range ra {
		for j := range ra[i] {
			if ra[i][j] != rb[i][j] {
				return false
			}
		}
	}
	return true
}

func TestRelayoutPreservesReservations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomSchedule(t, rng, 8, 32, 0.4)
	for _, policy := range []Layout{LayoutAsInserted, LayoutPacked, LayoutSpread} {
		out, err := s.Relayout(policy)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if err := out.Validate(); err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if !sameReservations(s, out) {
			t.Fatalf("%v changed the reservation matrix", policy)
		}
	}
}

func TestPackedUsesMinimumSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := randomSchedule(t, rng, 8, 64, 0.3)
	delta := 0
	for i := 0; i < 8; i++ {
		if s.rowLoad[i] > delta {
			delta = s.rowLoad[i]
		}
		if s.colLoad[i] > delta {
			delta = s.colLoad[i]
		}
	}
	packed, err := s.Relayout(LayoutPacked)
	if err != nil {
		t.Fatal(err)
	}
	if got := packed.BusySlots(); got != delta {
		t.Fatalf("packed busy slots = %d, want Δ = %d (Slepian–Duguid minimum)", got, delta)
	}
	// Busy slots must be the prefix.
	for t2 := 0; t2 < delta; t2++ {
		if len(packed.SlotConns(t2)) == 0 {
			t.Fatalf("packed: slot %d in prefix is empty", t2)
		}
	}
	for t2 := delta; t2 < packed.Slots(); t2++ {
		if len(packed.SlotConns(t2)) != 0 {
			t.Fatalf("packed: slot %d beyond Δ is busy", t2)
		}
	}
}

func TestSpreadDistributesBusySlots(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randomSchedule(t, rng, 4, 100, 0.1)
	spread, err := s.Relayout(LayoutSpread)
	if err != nil {
		t.Fatal(err)
	}
	// The busy slots should not all be adjacent: measure the max run of
	// consecutive busy slots; with ~10% load spread over 100 slots it must
	// be well under the packed case.
	run, maxRun := 0, 0
	for t2 := 0; t2 < spread.Slots(); t2++ {
		if len(spread.SlotConns(t2)) > 0 {
			run++
			if run > maxRun {
				maxRun = run
			}
		} else {
			run = 0
		}
	}
	if maxRun > 2 {
		t.Fatalf("spread layout has a busy run of %d slots", maxRun)
	}
}

func TestRelayoutEmptyAndUnknown(t *testing.T) {
	s, err := New(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []Layout{LayoutPacked, LayoutSpread} {
		out, err := s.Relayout(policy)
		if err != nil {
			t.Fatalf("%v on empty: %v", policy, err)
		}
		if out.BusySlots() != 0 {
			t.Fatalf("%v on empty: busy slots", policy)
		}
	}
	if _, err := s.Relayout(Layout(99)); err == nil {
		t.Error("unknown layout accepted")
	}
	if Layout(99).String() == "" || LayoutPacked.String() != "packed" {
		t.Error("Layout.String wrong")
	}
}

func BenchmarkRelayoutPacked(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s, err := New(16, 128)
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < 400; k++ {
		i, j := rng.Intn(16), rng.Intn(16)
		if s.rowLoad[i] < 64 && s.colLoad[j] < 64 {
			if _, err := s.Insert(i, j); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Relayout(LayoutPacked); err != nil {
			b.Fatal(err)
		}
	}
}

// SlotConns returns the connections active in slot t.
func (s *Schedule) SlotConns(t int) []Conn {
	var out []Conn
	for i, j := range s.row(t) {
		if j >= 0 {
			out = append(out, Conn{Input: i, Output: int(j)})
		}
	}
	return out
}
