package switchnode

import (
	"fmt"
	"testing"

	"repro/internal/cell"
)

// benchStep measures the slot-engine hot path: a saturated n-port per-VC
// switch with uniform traffic, refilled so every input always holds cells
// for several outputs. This is the loop the zero-allocation work targets;
// allocs/op should stay at (or near) zero.
func benchStep(b *testing.B, n int) {
	s, err := New(Config{N: n, Discipline: DisciplinePerVC, FrameSlots: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	// One circuit per (input, offset) pair, spreading each input's backlog
	// over four outputs.
	vc := func(in, k int) cell.VCI { return cell.VCI(1 + in*4 + k) }
	refill := func() {
		for in := 0; in < n; in++ {
			for k := 0; k < 4; k++ {
				out := (in + k) % n
				if s.BufferedBestEffort(in) < 8*n {
					s.EnqueueBestEffort(in, cell.Cell{VC: vc(in, k), Class: cell.BestEffort}, out)
				}
			}
		}
	}
	for i := 0; i < 4; i++ {
		refill()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refill()
		s.Step()
	}
}

func BenchmarkStep16(b *testing.B) { benchStep(b, 16) }
func BenchmarkStep64(b *testing.B) { benchStep(b, 64) }

// BenchmarkStepFewBusyPorts is the switch of a sparse fabric: two inputs
// carry best-effort traffic (each departed cell replaced at once, so the load
// holds), one pair has 8 reserved cells in a 128-slot frame and sends nothing,
// and every other port is idle. The three sizes should cost the same: a step
// is priced by what is queued, not by the port count.
func BenchmarkStepFewBusyPorts(b *testing.B) {
	for _, n := range []int{16, 24, 64} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			s, err := New(Config{N: n, Discipline: DisciplinePerVC, FrameSlots: 128, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Reserve(2, 3, 8); err != nil {
				b.Fatal(err)
			}
			for in := 0; in < 2; in++ {
				for k := 1; k <= 2; k++ {
					for c := 0; c < 4; c++ {
						s.EnqueueBestEffort(in, cell.Cell{VC: cell.VCI(1 + in), Class: cell.BestEffort}, n-k)
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, d := range s.Step() {
					s.EnqueueBestEffort(int(d.Cell.VC-1), d.Cell, d.Output)
				}
			}
		})
	}
}

// BenchmarkStepReservedEmpty is the floor an on-path fabric switch pays in a
// slot that brings it nothing: a reservation in the frame, no cell buffered.
func BenchmarkStepReservedEmpty(b *testing.B) {
	s, err := New(Config{N: 16, Discipline: DisciplinePerVC, FrameSlots: 128, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Reserve(0, 1, 8); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkStepFIFO16(b *testing.B) {
	s, err := New(Config{N: 16, Discipline: DisciplineFIFO, FrameSlots: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for in := 0; in < 16; in++ {
			s.EnqueueBestEffort(in, cell.Cell{VC: cell.VCI(1 + in), Class: cell.BestEffort}, (in+i)%16)
		}
		s.Step()
	}
}
