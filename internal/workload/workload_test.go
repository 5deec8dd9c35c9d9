package workload

import (
	"math"
	"testing"

	"repro/internal/switchnode"
)

func TestUniformLoadCalibration(t *testing.T) {
	u := NewUniform(16, 0.5, 1)
	if u.Name() == "" {
		t.Error("empty name")
	}
	total := 0
	const slots = 20000
	for s := int64(0); s < slots; s++ {
		total += len(u.Slot(s))
	}
	got := float64(total) / slots / 16
	if math.Abs(got-0.5) > 0.02 {
		t.Fatalf("uniform offered load = %.3f, want ~0.5", got)
	}
}

func TestHotspotSkew(t *testing.T) {
	h := NewHotspot(8, 0.8, 0.5, 3, 2)
	counts := make([]int, 8)
	for s := int64(0); s < 10000; s++ {
		for _, a := range h.Slot(s) {
			counts[a.Output]++
		}
	}
	hot := counts[3]
	var rest int
	for j, c := range counts {
		if j != 3 {
			rest += c
		}
	}
	// ~50% + 1/8 of the remaining 50% goes to the hot output.
	frac := float64(hot) / float64(hot+rest)
	if frac < 0.5 || frac > 0.62 {
		t.Fatalf("hot fraction = %.3f, want ~0.56", frac)
	}
}

func TestBurstyBurstsAreSingleDestination(t *testing.T) {
	b := NewBursty(4, 0.6, 8, 3)
	// Track per-input destination changes between consecutive cells; with
	// mean burst 8, changes should be far rarer than cells.
	lastDest := map[int]int{}
	cells, changes := 0, 0
	for s := int64(0); s < 20000; s++ {
		for _, a := range b.Slot(s) {
			cells++
			if prev, ok := lastDest[a.Input]; ok && prev != a.Output {
				changes++
			}
			lastDest[a.Input] = a.Output
		}
	}
	if cells == 0 {
		t.Fatal("bursty generated nothing")
	}
	if ratio := float64(changes) / float64(cells); ratio > 0.25 {
		t.Fatalf("destination change ratio %.3f too high for mean burst 8", ratio)
	}
	// Load calibration within tolerance.
	got := float64(cells) / 20000 / 4
	if math.Abs(got-0.6) > 0.06 {
		t.Fatalf("bursty load = %.3f, want ~0.6", got)
	}
}

// Experiment E2 (Karol et al. 1987): FIFO input queueing saturates at
// 2-sqrt(2) = 58.6% under uniform traffic. Offered load 1.0, throughput
// must land near 0.586 — and well below the per-VC result.
func TestFIFOHoLLimit(t *testing.T) {
	mk := func(d switchnode.Discipline) *switchnode.Switch {
		sw, err := switchnode.New(switchnode.Config{N: 16, Discipline: d, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	fifo := DriveBestEffort(mk(switchnode.DisciplineFIFO), NewUniform(16, 1.0, 21), 2000, 20000)
	karol := 2 - math.Sqrt2 // 0.5858
	if math.Abs(fifo.Throughput-karol) > 0.03 {
		t.Fatalf("FIFO saturation throughput = %.4f, want %.4f ± 0.03", fifo.Throughput, karol)
	}
	pervc := DriveBestEffort(mk(switchnode.DisciplinePerVC), NewUniform(16, 1.0, 21), 2000, 20000)
	if pervc.Throughput < 0.9 {
		t.Fatalf("per-VC + PIM saturation throughput = %.4f, want > 0.9", pervc.Throughput)
	}
}

// Experiment E4 (headline): PIM with 3 iterations + random-access input
// buffers is nearly as good as output queueing with k=16 and unbounded
// buffers, at high uniform load.
func TestPIMNearOutputQueueing(t *testing.T) {
	const load = 0.9
	sw, err := switchnode.New(switchnode.Config{N: 16, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	pimRes := DriveBestEffort(sw, NewUniform(16, load, 31), 2000, 20000)
	oracle := DriveOracle(switchnode.NewOracle(16, 16, 14), NewUniform(16, load, 31), 2000, 20000)
	if pimRes.Throughput < oracle.Throughput-0.02 {
		t.Fatalf("PIM throughput %.4f vs oracle %.4f: more than 0.02 behind",
			pimRes.Throughput, oracle.Throughput)
	}
	// Latency within a small constant factor of the oracle's.
	if pimRes.Latency.Mean > 6*oracle.Latency.Mean+10 {
		t.Fatalf("PIM mean latency %.2f vs oracle %.2f: too far", pimRes.Latency.Mean, oracle.Latency.Mean)
	}
}

func TestDriveAccountsDrops(t *testing.T) {
	sw, err := switchnode.New(switchnode.Config{N: 4, BufferLimit: 1, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	res := DriveBestEffort(sw, NewHotspot(4, 1.0, 1.0, 0, 16), 0, 5000)
	if res.Dropped == 0 {
		t.Fatal("tiny buffers under a pure hotspot must drop")
	}
	if res.Throughput > 0.3 {
		t.Fatalf("hotspot throughput = %.3f, should be ~1/4 (single hot output)", res.Throughput)
	}
	if res.Backlog < 0 {
		t.Fatalf("negative backlog %d", res.Backlog)
	}
}

func TestVCAssignmentStable(t *testing.T) {
	u := NewUniform(4, 1.0, 5)
	vcs := map[[2]int]uint32{}
	for s := int64(0); s < 100; s++ {
		for _, a := range u.Slot(s) {
			key := [2]int{a.Input, a.Output}
			if prev, ok := vcs[key]; ok && prev != uint32(a.Cell.VC) {
				t.Fatalf("pair %v changed VC: %d then %d", key, prev, a.Cell.VC)
			}
			vcs[key] = uint32(a.Cell.VC)
		}
	}
}

func TestPatternNames(t *testing.T) {
	for _, p := range []Pattern{
		NewUniform(4, 0.5, 1),
		NewHotspot(4, 0.5, 0.3, 0, 1),
		NewBursty(4, 0.5, 4, 1),
		NewTranspose(4, 0.5, 1),
		NewLogDiagonal(4, 0.5, 1),
	} {
		if p.Name() == "" {
			t.Errorf("%T has empty name", p)
		}
	}
}

func TestTransposeStructure(t *testing.T) {
	p := NewTranspose(8, 1.0, 2)
	for s := int64(0); s < 50; s++ {
		for _, a := range p.Slot(s) {
			if a.Output != (a.Input+4)%8 {
				t.Fatalf("transpose sent %d->%d", a.Input, a.Output)
			}
		}
	}
	// No output contention: every scheduler should push it to ~full rate.
	sw, err := switchnode.New(switchnode.Config{N: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res := DriveBestEffort(sw, NewTranspose(8, 1.0, 2), 500, 5000)
	if res.Throughput < 0.97 {
		t.Fatalf("transpose throughput %.3f, want ~1.0 (no contention)", res.Throughput)
	}
}

func TestLogDiagonalSkew(t *testing.T) {
	p := NewLogDiagonal(8, 1.0, 3)
	offsets := map[int]int{}
	total := 0
	for s := int64(0); s < 5000; s++ {
		for _, a := range p.Slot(s) {
			offsets[(a.Output-a.Input+8)%8]++
			total++
		}
	}
	// Offset 0 (the diagonal) must dominate, and the tail must decay.
	if offsets[0] < total/3 {
		t.Fatalf("diagonal share %d/%d, want ~1/2", offsets[0], total)
	}
	if offsets[1] < offsets[3] {
		t.Fatalf("geometric decay violated: k=1:%d k=3:%d", offsets[1], offsets[3])
	}
	// Load calibration.
	got := float64(total) / 5000 / 8
	if math.Abs(got-1.0) > 0.02 {
		t.Fatalf("log-diagonal load %.3f", got)
	}
}
