package switchnode

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/buffer"
	"repro/internal/cell"
	"repro/internal/crossbar"
	"repro/internal/matching"
	"repro/internal/sched"
	"repro/internal/schedule"
)

// refSwitch is the switch as it stepped before the occupancy bitsets: every
// phase of a slot is a loop over all n ports, and nothing is remembered about
// which inputs hold cells. It is the reference model Switch is compared
// against; it shares only the parts (buffers, crossbar, frame, matcher).
type refSwitch struct {
	n       int
	be      []buffer.InputBuffer
	gtd     []*buffer.PerVC
	xb      *crossbar.Crossbar
	matcher sched.Scheduler
	frame   *schedule.Schedule
	slot    int64
	stats   Stats
	reqs    *matching.Requests
	from    []uint8 // 0 unconnected, 1 guaranteed, 2 best-effort
}

func newRefSwitch(t *testing.T, cfg Config) *refSwitch {
	t.Helper()
	frame, err := schedule.New(cfg.N, cfg.FrameSlots)
	if err != nil {
		t.Fatal(err)
	}
	s := &refSwitch{
		n:       cfg.N,
		xb:      crossbar.New(cfg.N),
		matcher: sched.NewPIM(cfg.Seed, cfg.PIMIterations),
		frame:   frame,
		reqs:    matching.NewRequests(cfg.N),
		from:    make([]uint8, cfg.N),
	}
	for i := 0; i < cfg.N; i++ {
		if cfg.Discipline == DisciplineFIFO {
			s.be = append(s.be, buffer.NewFIFO(cfg.BufferLimit))
		} else {
			s.be = append(s.be, buffer.NewPerVC(cfg.BufferLimit))
		}
		s.gtd = append(s.gtd, buffer.NewPerVC(0))
	}
	return s
}

func (s *refSwitch) enqueue(pool buffer.InputBuffer, arrived, dropped *int64, c cell.Cell, output int) bool {
	*arrived++
	if !pool.Push(c, output) {
		*dropped++
		return false
	}
	return true
}

func (s *refSwitch) buffered() int {
	total := 0
	for i := 0; i < s.n; i++ {
		total += s.be[i].Len() + s.gtd[i].Len()
	}
	return total
}

func (s *refSwitch) bufferedVC(vc cell.VCI) int {
	total := 0
	for i := 0; i < s.n; i++ {
		total += s.be[i].CountVC(vc) + s.gtd[i].CountVC(vc)
	}
	return total
}

func (s *refSwitch) purgeVC(vc cell.VCI) int {
	total := 0
	for i := 0; i < s.n; i++ {
		total += s.be[i].Drop(vc) + s.gtd[i].Drop(vc)
	}
	return total
}

func (s *refSwitch) purge() int {
	total := 0
	for i := 0; i < s.n; i++ {
		total += s.be[i].DropAll() + s.gtd[i].DropAll()
	}
	return total
}

func (s *refSwitch) step() []Departure {
	s.xb.Reset()
	clear(s.from)
	framePos := int(s.slot % int64(s.frame.Slots()))
	for i := 0; i < s.n; i++ {
		j := s.frame.At(framePos, i)
		if j < 0 {
			continue
		}
		if !s.gtd[i].Queued(j) {
			s.stats.GuaranteedSlotsFree++
			continue
		}
		if err := s.xb.ConnectOne(i, j); err == nil {
			s.from[i] = 1
			s.stats.GuaranteedSlotsFired++
		}
	}
	s.reqs.ClearAll()
	busy := s.xb.OutputBusyWords()
	any := false
	for i := 0; i < s.n; i++ {
		if s.from[i] != 0 {
			continue
		}
		if s.reqs.SetRowAndNot(i, s.be[i].EligibleBits(), busy) {
			any = true
		}
	}
	if any {
		res := s.matcher.Schedule(s.reqs)
		s.stats.PIMIterationsTotal += int64(res.Iterations)
		for i, j := range res.Match {
			if j >= 0 && s.xb.ConnectOne(i, j) == nil {
				s.from[i] = 2
			}
		}
	}
	var out []Departure
	for i, from := range s.from {
		if from == 0 {
			continue
		}
		d := Departure{Output: s.xb.Connected(i), Guaranteed: from == 1}
		buf := s.be[i]
		if d.Guaranteed {
			buf = s.gtd[i]
		}
		if !buf.Pop(d.Output, &d.Cell) {
			continue
		}
		out = append(out, d)
		if d.Guaranteed {
			s.stats.DepartedGuaranteed++
		} else {
			s.stats.DepartedBestEffort++
		}
	}
	s.slot++
	s.stats.Slots++
	return out
}

// TestSwitchMatchesReferenceModel drives the switch and the all-ports
// reference with the same random operations — arrivals of both classes,
// reservations made and withdrawn, per-circuit and whole-switch purges,
// frames replaced and reset, slots stepped — and requires identical
// departures (order, output, class, cell), counters and occupancy throughout.
func TestSwitchMatchesReferenceModel(t *testing.T) {
	const opsPerConfig = 13000 // × 16 configurations = 208 000 operations
	for _, n := range []int{4, 16, 24, 70} {
		for _, disc := range []Discipline{DisciplineFIFO, DisciplinePerVC} {
			for _, limit := range []int{0, 3} {
				t.Run(fmt.Sprintf("n%d/%v/limit%d", n, disc, limit), func(t *testing.T) {
					cfg := Config{N: n, Discipline: disc, BufferLimit: limit, FrameSlots: 8, PIMIterations: 3, Seed: int64(7*n + limit)}
					compareWithReference(t, cfg, opsPerConfig)
				})
			}
		}
	}
}

func compareWithReference(t *testing.T, cfg Config, ops int) {
	sw, ref := newSwitch(t, cfg), newRefSwitch(t, cfg)
	n := cfg.N
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Traffic concentrates on a few ports for a while, then moves, and
	// arrivals outrun the slots in some stretches and trail them in others,
	// so the switch passes through empty, sparse and crowded states.
	hot, load := 1+rng.Intn(n), 0
	var seq uint64
	var reserved []schedule.Conn // pairs ever reserved (some since withdrawn)
	for op := 0; op < ops; op++ {
		if op%500 == 0 {
			hot, load = 1+rng.Intn(1+rng.Intn(n)), []int{0, 5, 9}[rng.Intn(3)]
		}
		in, out := rng.Intn(hot), rng.Intn(1+rng.Intn(n)) // low outputs are contended
		// A circuit keeps one output, as the network guarantees.
		vc := cell.VCI(1 + out + n*rng.Intn(2))
		k := rng.Intn(100)
		if k >= 63 && rng.Intn(10) < load {
			k = rng.Intn(45) // an arrival in place of a slot
		}
		switch {
		case k < 30:
			seq++
			c := cell.Cell{VC: vc, Class: cell.BestEffort, Stamp: cell.Stamp{Seq: seq}}
			if got, want := sw.EnqueueBestEffort(in, c, out), ref.enqueue(ref.be[in], &ref.stats.ArrivedBestEffort, &ref.stats.DroppedBestEffort, c, out); got != want {
				t.Fatalf("op %d: best-effort enqueue accepted=%v, reference %v", op, got, want)
			}
		case k < 45:
			seq++
			if len(reserved) > 0 && rng.Intn(4) != 0 {
				// Mostly where a reservation can carry it.
				p := reserved[rng.Intn(len(reserved))]
				in, out, vc = p.Input, p.Output, cell.VCI(1+p.Output)
			}
			c := cell.Cell{VC: vc, Class: cell.Guaranteed, Stamp: cell.Stamp{Seq: seq}}
			if got, want := sw.EnqueueGuaranteed(in, c, out), ref.enqueue(ref.gtd[in], &ref.stats.ArrivedGuaranteed, &ref.stats.DroppedGuaranteed, c, out); got != want {
				t.Fatalf("op %d: guaranteed enqueue accepted=%v, reference %v", op, got, want)
			}
		case k < 52:
			cells := 1 + rng.Intn(3)
			in = rng.Intn(n)
			_, refErr := ref.frame.InsertK(in, out, cells)
			if err := sw.Reserve(in, out, cells); (err == nil) != (refErr == nil) {
				t.Fatalf("op %d: reserve %d->%d x%d: %v, reference %v", op, in, out, cells, err, refErr)
			} else if err == nil {
				reserved = append(reserved, schedule.Conn{Input: in, Output: out})
			}
		case k < 57:
			cells := 1 + rng.Intn(3)
			in = rng.Intn(n)
			if len(reserved) > 0 && rng.Intn(4) != 0 {
				p := reserved[rng.Intn(len(reserved))]
				in, out = p.Input, p.Output
			}
			sw.Unreserve(in, out, cells)
			for c := 0; c < cells && ref.frame.Remove(in, out) == nil; c++ {
			}
		case k < 60:
			if got, want := sw.BufferedVC(vc), ref.bufferedVC(vc); got != want {
				t.Fatalf("op %d: BufferedVC(%d) = %d, reference %d", op, vc, got, want)
			}
			if got, want := sw.PurgeVC(vc), ref.purgeVC(vc); got != want {
				t.Fatalf("op %d: PurgeVC(%d) = %d, reference %d", op, vc, got, want)
			}
		case k == 60 && rng.Intn(4) == 0:
			if got, want := sw.Purge(), ref.purge(); got != want {
				t.Fatalf("op %d: Purge = %d, reference %d", op, got, want)
			}
		case k == 61 && rng.Intn(4) == 0:
			// Install a relayout: the same reservations, rotated one slot.
			cur := ref.frame
			at := func(slot, input int) int { return cur.At((slot+1)%cur.Slots(), input) }
			a, errA := schedule.FromAssignments(n, cur.Slots(), at)
			b, errB := schedule.FromAssignments(n, cur.Slots(), at)
			if errA != nil || errB != nil {
				t.Fatal(errA, errB)
			}
			if err := sw.SetFrame(a); err != nil {
				t.Fatal(err)
			}
			ref.frame = b
		case k == 62 && rng.Intn(8) == 0:
			if err := sw.ResetFrame(); err != nil {
				t.Fatal(err)
			}
			f, err := schedule.New(n, ref.frame.Slots())
			if err != nil {
				t.Fatal(err)
			}
			ref.frame = f
		default:
			got, want := sw.Step(), ref.step()
			if len(got) != len(want) {
				t.Fatalf("op %d: %d departures, reference %d", op, len(got), len(want))
			}
			for d := range want {
				if got[d] != want[d] {
					t.Fatalf("op %d: departure %d = %+v, reference %+v", op, d, got[d], want[d])
				}
			}
		}
		if sw.Stats() != ref.stats {
			t.Fatalf("op %d: stats %+v, reference %+v", op, sw.Stats(), ref.stats)
		}
		if sw.Buffered() != ref.buffered() {
			t.Fatalf("op %d: %d cells buffered, reference %d", op, sw.Buffered(), ref.buffered())
		}
		if err := sw.CheckInvariant(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	if ref.stats.DepartedBestEffort == 0 || ref.stats.DepartedGuaranteed == 0 || ref.stats.GuaranteedSlotsFree == 0 ||
		ref.stats.DroppedBestEffort == 0 && cfg.BufferLimit > 0 {
		t.Fatalf("the run did not exercise every path: %+v", ref.stats)
	}
}
