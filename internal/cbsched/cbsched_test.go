package cbsched

import (
	"testing"

	"repro/internal/cell"
	"repro/internal/workload"
)

func mustNew(t *testing.T, cfg Config) *Switch {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func drive(s *Switch, pattern workload.Pattern, warmup, slots int64) workload.Result {
	return workload.DriveSwitch(s, func(a workload.Arrival) bool {
		return s.Enqueue(a.Input, a.Cell, a.Output)
	}, pattern, warmup, slots)
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{N: 0}); err == nil {
		t.Fatal("accepted zero ports")
	}
	if _, err := New(Config{N: 4, CrosspointDepth: -1}); err == nil {
		t.Fatal("accepted negative crosspoint depth")
	}
	s := mustNew(t, Config{N: 4})
	if s.N() != 4 {
		t.Fatalf("N() = %d", s.N())
	}
}

func TestEnqueueBoundsAndDrops(t *testing.T) {
	s := mustNew(t, Config{N: 2, BufferLimit: 1})
	if s.Enqueue(-1, cell.Cell{}, 0) || s.Enqueue(0, cell.Cell{}, 2) {
		t.Fatal("accepted out-of-range port")
	}
	if !s.Enqueue(0, cell.Cell{}, 1) {
		t.Fatal("rejected first cell")
	}
	if s.Enqueue(0, cell.Cell{}, 1) {
		t.Fatal("exceeded BufferLimit")
	}
	st := s.Stats()
	if st.Arrived != 2 || st.Dropped != 1 {
		t.Fatalf("stats %+v", st)
	}
	if s.Buffered(0) != 1 {
		t.Fatalf("Buffered(0) = %d", s.Buffered(0))
	}
}

// A cell spends at least one slot in its crosspoint buffer: enqueue, then
// the first Step moves it into the fabric, the second delivers it.
func TestMinimumLatencyThroughFabric(t *testing.T) {
	s := mustNew(t, Config{N: 4})
	s.Enqueue(1, cell.Cell{VC: 9}, 3)
	if deps := s.Step(); len(deps) != 0 {
		t.Fatalf("cell departed in the slot it entered the fabric: %v", deps)
	}
	deps := s.Step()
	if len(deps) != 1 || deps[0].Output != 3 || deps[0].Cell.VC != 9 {
		t.Fatalf("departures %v", deps)
	}
}

// With 1-cell crosspoint buffers and RR/RR arbiters, the fabric sustains
// full load on a contention-free permutation and ~100% on saturated
// uniform traffic — the result that made CICQ attractive.
func TestFullThroughput(t *testing.T) {
	s := mustNew(t, Config{N: 16, CrosspointDepth: 1})
	res := drive(s, workload.NewTranspose(16, 1.0, 3), 500, 5000)
	if res.Throughput < 0.99 {
		t.Fatalf("permutation throughput %.4f, want ~1.0", res.Throughput)
	}
	s = mustNew(t, Config{N: 16, CrosspointDepth: 1})
	res = drive(s, workload.NewUniform(16, 1.0, 3), 2000, 10000)
	if res.Throughput < 0.95 {
		t.Fatalf("uniform saturation throughput %.4f, want ~1.0", res.Throughput)
	}
}

// Crosspoint occupancy never exceeds depth per crosspoint.
func TestCrosspointDepthRespected(t *testing.T) {
	const n, depth = 8, 2
	s := mustNew(t, Config{N: n, CrosspointDepth: depth})
	drive(s, workload.NewBursty(n, 0.9, 16, 5), 0, 5000)
	if max := s.Stats().CrosspointOccupancyMax; max > int64(n*n*depth) {
		t.Fatalf("crosspoint occupancy %d exceeds capacity %d", max, n*n*depth)
	}
}

// The output arbiters are round-robin: N inputs all feeding one output get
// equal service.
func TestOutputArbiterFairness(t *testing.T) {
	const n, slots = 4, 4000
	s := mustNew(t, Config{N: n})
	served := make([]int, n)
	for slot := 0; slot < slots; slot++ {
		for i := 0; i < n; i++ {
			s.Enqueue(i, cell.Cell{VC: cell.VCI(i + 1)}, 0)
		}
		for _, d := range s.Step() {
			served[int(d.Cell.VC)-1]++
		}
	}
	for i, c := range served {
		if c < slots/n-n || c > slots/n+n {
			t.Fatalf("input %d served %d of %d slots; distribution %v", i, c, slots, served)
		}
	}
}

// The model is deterministic: no randomness anywhere.
func TestDeterministic(t *testing.T) {
	run := func() workload.Result {
		s := mustNew(t, Config{N: 8, CrosspointDepth: 2})
		return drive(s, workload.NewBursty(8, 0.8, 8, 11), 200, 3000)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical runs differ: %+v vs %+v", a, b)
	}
}
