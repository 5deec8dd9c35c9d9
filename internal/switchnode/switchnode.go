// Package switchnode assembles one AN2 switch from its parts: per-input
// line-card buffers, the crossbar fabric, the guaranteed-traffic frame
// schedule, and a best-effort scheduler (parallel iterative matching by
// default; any sched.Scheduler — e.g. iSLIP — can be plugged in).
//
// Each call to Step simulates one cell slot, exactly as the paper describes
// (§3–§4): guaranteed reservations drive the crossbar first; best-effort
// cells are then matched by the scheduler onto the inputs and outputs the
// guaranteed schedule left idle — including reserved pairs whose circuit
// has no cell waiting.
//
// A slot costs what is queued, not how many ports the switch has: every phase
// of Step walks a set of ports, ascending — the order the all-ports loops
// they replaced visited the same ports in (ref_test.go keeps that Step as
// the reference model).
package switchnode

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/buffer"
	"repro/internal/cell"
	"repro/internal/crossbar"
	"repro/internal/matching"
	"repro/internal/obs"
	"repro/internal/pim"
	"repro/internal/sched"
	"repro/internal/schedule"
)

// Discipline selects the input-buffer organization (paper §3).
type Discipline int

const (
	// DisciplineFIFO uses one FIFO queue per input (AN1-style; exhibits
	// head-of-line blocking).
	DisciplineFIFO Discipline = iota + 1
	// DisciplinePerVC uses random-access per-virtual-circuit queues
	// (AN2-style; no head-of-line blocking).
	DisciplinePerVC
)

// String names the discipline.
func (d Discipline) String() string {
	switch d {
	case DisciplineFIFO:
		return "fifo"
	case DisciplinePerVC:
		return "per-vc"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// Config configures a switch.
type Config struct {
	// N is the port count (default crossbar.DefaultSize).
	N int
	// Discipline selects the input buffering (default DisciplinePerVC).
	Discipline Discipline
	// PIMIterations is the matching budget per slot for the default PIM
	// scheduler (default pim.DefaultIterations; 0 picks the default,
	// negative runs PIM to quiescence = maximal matching). Ignored when
	// Scheduler is set.
	PIMIterations int
	// Scheduler, when non-nil, replaces the default parallel iterative
	// matcher for best-effort traffic (e.g. islip.New or sched.Maximum).
	// The scheduler must be private to this switch: it is called once per
	// slot and carries its state across slots.
	Scheduler sched.Scheduler
	// BufferLimit bounds each input FIFO (FIFO discipline) or each
	// circuit's queue (per-VC discipline); 0 = unbounded.
	BufferLimit int
	// Seed seeds the switch's private randomness (PIM grant/accept).
	Seed int64
	// FrameSlots sets the guaranteed frame size (default
	// schedule.DefaultFrameSlots). The frame schedule starts empty;
	// reserve with Reserve.
	FrameSlots int
	// Obs, when non-nil, receives per-slot instrument updates (cells
	// switched, matching iterations). Shard is this switch's writer shard
	// in the registry — simnet assigns each switch its build-order index
	// so concurrent switches in one Step never contend on a cache line.
	// A nil Obs costs one pointer check per instrument site.
	Obs   *obs.Registry
	Shard int
}

// Departure is a cell leaving the switch in a slot.
type Departure struct {
	Output     int
	Cell       cell.Cell
	Guaranteed bool
}

// Stats counts switch activity.
type Stats struct {
	ArrivedBestEffort  int64
	ArrivedGuaranteed  int64
	DroppedBestEffort  int64
	DroppedGuaranteed  int64
	DepartedBestEffort int64
	DepartedGuaranteed int64
	Slots              int64
	// PIMIterationsTotal sums the best-effort scheduler's per-slot
	// iteration counts (named for the default PIM scheduler; iSLIP and
	// other sched.Scheduler implementations report here too).
	PIMIterationsTotal   int64
	GuaranteedSlotsFree  int64 // reserved slots lent to best-effort
	GuaranteedSlotsFired int64
}

// Switch is a single AN2 switch. It is not safe for concurrent use.
type Switch struct {
	n       int
	disc    Discipline
	be      []buffer.InputBuffer
	gtd     []*buffer.PerVC
	xb      *crossbar.Crossbar
	matcher sched.Scheduler
	frame   *schedule.Schedule
	slot    int64
	stats   Stats
	// buffered counts cells queued across all inputs, both classes,
	// maintained at every enqueue/pop/purge so Quiescent is O(1).
	buffered int
	// occBE and occGtd are the inputs holding at least one best-effort /
	// guaranteed cell, as bitsets (bit i set iff be[i].Len() > 0, resp.
	// gtd[i].Len() > 0), maintained at the same points as buffered. Step
	// visits the inputs in them, not every port.
	occBE  []uint64
	occGtd []uint64
	reqs   *matching.Requests
	// gtdIn holds the inputs phase 1 of the current slot connected: their
	// cells leave from the guaranteed pool, every other connected input's
	// from the best-effort buffer.
	gtdIn []uint64
	// deps backs the slice returned by Step, reused across slots.
	deps []Departure

	// Observability handles (nil when Config.Obs is nil — every call on
	// them is then a single-branch no-op).
	obsShard     int
	obsDeparted  *obs.Counter
	obsMatchIter *obs.Histogram
	obsMatched   *obs.Histogram
}

// New creates a switch.
func New(cfg Config) (*Switch, error) {
	if cfg.N == 0 {
		cfg.N = crossbar.DefaultSize
	}
	if cfg.N < 1 {
		return nil, fmt.Errorf("switchnode: size %d", cfg.N)
	}
	if cfg.Discipline == 0 {
		cfg.Discipline = DisciplinePerVC
	}
	if cfg.PIMIterations == 0 {
		cfg.PIMIterations = pim.DefaultIterations
	}
	if cfg.PIMIterations < 0 {
		cfg.PIMIterations = 0 // quiescence
	}
	if cfg.FrameSlots == 0 {
		cfg.FrameSlots = schedule.DefaultFrameSlots
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = sched.NewPIM(cfg.Seed, cfg.PIMIterations)
	}
	frame, err := schedule.New(cfg.N, cfg.FrameSlots)
	if err != nil {
		return nil, err
	}
	s := &Switch{
		n:       cfg.N,
		disc:    cfg.Discipline,
		be:      make([]buffer.InputBuffer, 0, cfg.N),
		gtd:     make([]*buffer.PerVC, 0, cfg.N),
		xb:      crossbar.New(cfg.N),
		matcher: cfg.Scheduler,
		frame:   frame,
		occBE:   make([]uint64, matching.WordsFor(cfg.N)),
		occGtd:  make([]uint64, matching.WordsFor(cfg.N)),
		reqs:    matching.NewRequests(cfg.N),
		gtdIn:   make([]uint64, matching.WordsFor(cfg.N)),
		deps:    make([]Departure, 0, cfg.N),

		obsShard:     cfg.Shard,
		obsDeparted:  cfg.Obs.Counter("switch_departed_cells_total"),
		obsMatchIter: cfg.Obs.Histogram("switch_match_iterations"),
		obsMatched:   cfg.Obs.Histogram("switch_matched_pairs"),
	}
	for i := 0; i < cfg.N; i++ {
		switch cfg.Discipline {
		case DisciplineFIFO:
			s.be = append(s.be, buffer.NewFIFO(cfg.BufferLimit))
		case DisciplinePerVC:
			s.be = append(s.be, buffer.NewPerVC(cfg.BufferLimit))
		default:
			return nil, fmt.Errorf("switchnode: unknown discipline %d", cfg.Discipline)
		}
		s.gtd = append(s.gtd, buffer.NewPerVC(0))
	}
	return s, nil
}

// N returns the port count.
func (s *Switch) N() int { return s.n }

// Slot returns the number of slots stepped so far.
func (s *Switch) Slot() int64 { return s.slot }

// Stats returns a copy of the switch counters.
func (s *Switch) Stats() Stats { return s.stats }

// Frame exposes the guaranteed frame schedule (for inspection and for
// bandwidth central's updates).
func (s *Switch) Frame() *schedule.Schedule { return s.frame }

// SetFrame replaces the guaranteed frame schedule with an externally
// computed one of the same dimensions — how a relayout (packed/spread) or
// a flattened nested schedule is installed. The switch applies it at the
// next slot boundary.
func (s *Switch) SetFrame(f *schedule.Schedule) error {
	if f == nil || f.N() != s.n || f.Slots() != s.frame.Slots() {
		return fmt.Errorf("switchnode: frame must be %d ports × %d slots", s.n, s.frame.Slots())
	}
	s.frame = f
	return nil
}

// ErrBadPort reports an out-of-range port.
var ErrBadPort = errors.New("switchnode: port out of range")

// Reserve adds a guaranteed reservation of k cells/frame from input to
// output via Slepian–Duguid insertion.
func (s *Switch) Reserve(input, output, k int) error {
	if _, err := s.frame.InsertK(input, output, k); err != nil {
		return fmt.Errorf("switchnode: reserve: %w", err)
	}
	return nil
}

// Unreserve removes up to k cells/frame of the (input, output) reservation.
func (s *Switch) Unreserve(input, output, k int) {
	for c := 0; c < k; c++ {
		if err := s.frame.Remove(input, output); err != nil {
			return
		}
	}
}

// EnqueueBestEffort places a best-effort cell in input's buffer, destined
// to output. It reports false if the cell was dropped (buffer full).
func (s *Switch) EnqueueBestEffort(input int, c cell.Cell, output int) bool {
	if input < 0 || input >= s.n || output < 0 || output >= s.n {
		return false
	}
	s.stats.ArrivedBestEffort++
	if !s.be[input].Push(c, output) {
		s.stats.DroppedBestEffort++
		return false
	}
	s.buffered++
	s.occBE[input/64] |= 1 << (uint(input) % 64)
	return true
}

// EnqueueGuaranteed places a guaranteed cell in input's guaranteed pool,
// destined to output. Guaranteed pools are sized by admission control, so
// a full pool indicates a misbehaving source; the cell is dropped and
// counted.
func (s *Switch) EnqueueGuaranteed(input int, c cell.Cell, output int) bool {
	if input < 0 || input >= s.n || output < 0 || output >= s.n {
		return false
	}
	s.stats.ArrivedGuaranteed++
	if !s.gtd[input].Push(c, output) {
		s.stats.DroppedGuaranteed++
		return false
	}
	s.buffered++
	s.occGtd[input/64] |= 1 << (uint(input) % 64)
	return true
}

// BufferedBestEffort returns the number of best-effort cells queued at
// input.
func (s *Switch) BufferedBestEffort(input int) int { return s.be[input].Len() }

// BufferedGuaranteed returns the number of guaranteed cells queued at
// input.
func (s *Switch) BufferedGuaranteed(input int) int { return s.gtd[input].Len() }

// BufferedVC returns the number of cells (both classes) buffered for
// circuit vc across all inputs.
func (s *Switch) BufferedVC(vc cell.VCI) int {
	total := 0
	for w := range s.occBE {
		for word := s.occBE[w] | s.occGtd[w]; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			total += s.be[i].CountVC(vc) + s.gtd[i].CountVC(vc)
		}
	}
	return total
}

// PurgeVC drains every buffered cell of circuit vc from the best-effort
// and guaranteed buffers of all inputs — the stale cells a reroute leaves
// behind on the old path. The eligible-output bitsets stay consistent.
// It returns the number of cells discarded.
func (s *Switch) PurgeVC(vc cell.VCI) int {
	total := 0
	for w := range s.occBE {
		for word := s.occBE[w] | s.occGtd[w]; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			total += s.be[i].Drop(vc) + s.gtd[i].Drop(vc)
			if s.be[i].Len() == 0 {
				s.occBE[w] &^= 1 << (uint(i) % 64)
			}
			if s.gtd[i].Len() == 0 {
				s.occGtd[w] &^= 1 << (uint(i) % 64)
			}
		}
	}
	s.buffered -= total
	return total
}

// Purge drains every buffered cell of every circuit — a crashed switch
// losing its buffer memory. It returns the number of cells discarded.
func (s *Switch) Purge() int {
	total := 0
	for w := range s.occBE {
		for word := s.occBE[w] | s.occGtd[w]; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			total += s.be[i].DropAll() + s.gtd[i].DropAll()
		}
		s.occBE[w], s.occGtd[w] = 0, 0
	}
	s.buffered -= total
	return total
}

// CheckInvariant verifies the occupancy bookkeeping Step relies on: an
// input's bit is set in a class's occupancy set exactly when its buffer of
// that class holds a cell, and Buffered is the sum of all buffer lengths. It
// reads only.
func (s *Switch) CheckInvariant() error {
	total := 0
	for i := 0; i < s.n; i++ {
		bit := uint64(1) << (uint(i) % 64)
		be, gtd := s.be[i].Len(), s.gtd[i].Len()
		if occ := s.occBE[i/64]&bit != 0; occ != (be > 0) {
			return fmt.Errorf("switchnode: input %d holds %d best-effort cells but its occupancy bit is %v", i, be, occ)
		}
		if occ := s.occGtd[i/64]&bit != 0; occ != (gtd > 0) {
			return fmt.Errorf("switchnode: input %d holds %d guaranteed cells but its occupancy bit is %v", i, gtd, occ)
		}
		total += be + gtd
	}
	if total != s.buffered {
		return fmt.Errorf("switchnode: %d cells buffered, counter says %d", total, s.buffered)
	}
	return nil
}

// ResetFrame clears the guaranteed frame schedule — the reservation state
// a switch crash destroys. The port count and frame size are preserved.
func (s *Switch) ResetFrame() {
	// New cannot fail: the dimensions were validated at construction.
	if f, err := schedule.New(s.n, s.frame.Slots()); err == nil {
		s.frame = f
	}
}

// Buffered returns the total number of cells queued across all inputs,
// both traffic classes.
func (s *Switch) Buffered() int { return s.buffered }

// Quiescent reports whether a Step would be observably a no-op besides
// advancing the slot clock: no cell is buffered in either class and the
// guaranteed frame is empty. In that state phase 1 makes no connection and
// updates no counter (GuaranteedSlotsFree counts only reserved slots), and
// phase 2 raises no request, so the matcher — and its private randomness —
// is never invoked.
//
// Quiescence is the simnet engine's sleep invariant. A quiescent switch
// stays quiescent until an external event touches it — a cell arrival
// (EnqueueBestEffort/EnqueueGuaranteed), a reservation (Reserve/SetFrame),
// or fault repair — because Step itself never creates work on an empty
// switch. simnet therefore puts quiescent switches to sleep, skips them
// entirely during its Step, and calls AdvanceIdle to settle the skipped
// span when one of those events wakes the switch: any interleaving of
// sleeps and wakes yields the same state as stepping every slot, as long
// as every mutating entry point wakes the switch first.
func (s *Switch) Quiescent() bool { return s.buffered == 0 && s.frame.Cells() == 0 }

// StepIdle advances the slot clock exactly as a full Step of a quiescent
// switch would: slot and Stats.Slots advance, nothing else changes, and no
// departure is produced. Callers must check Quiescent first.
func (s *Switch) StepIdle() {
	s.slot++
	s.stats.Slots++
}

// AdvanceIdle advances the slot clock by k slots in one call — the batch
// form of StepIdle simnet uses to settle a sleeping switch's skipped span
// when it wakes. Callers must ensure the switch was quiescent
// for the whole span (see Quiescent); k <= 0 is a no-op.
func (s *Switch) AdvanceIdle(k int64) {
	if k <= 0 {
		return
	}
	s.slot += k
	s.stats.Slots += k
}

// Step advances the switch one cell slot and returns the departures.
//
// The slot proceeds in the order the paper gives: the frame schedule's
// reserved connections are made first (a reserved pair with no waiting
// guaranteed cell leaves its input and output idle), and parallel
// iterative matching then pairs the remaining inputs and outputs that have
// best-effort cells.
//
// Each phase walks a bitset — the frame's inputs at this position that hold
// guaranteed cells, the inputs holding best-effort cells, the crossbar's
// connected inputs — and a switch holding no cell only counts the reserved
// slots it lends.
//
// The returned slice is reused across slots: it is valid until the next
// Step call, so callers that retain departures must copy them. Every
// caller in this repository consumes the slice within the slot, which
// keeps the slot loop allocation-free.
func (s *Switch) Step() []Departure {
	s.xb.Reset()
	framePos := int(s.slot % int64(s.frame.Slots()))
	lent := s.frame.CountAt(framePos)
	s.slot++
	s.stats.Slots++
	if s.buffered == 0 {
		// Every reserved slot is lent, nobody requests, no random draw.
		s.stats.GuaranteedSlotsFree += int64(lent)
		return nil
	}

	// Phase 1: guaranteed schedule. A reserved pair with no guaranteed cell
	// waiting lends its slot to best-effort. The cells themselves stay in
	// their buffers until phase 3 moves each straight into the departure
	// list.
	reserved := s.frame.InputsAt(framePos)
	for w := range s.gtdIn {
		s.gtdIn[w] = 0
		for word := reserved[w] & s.occGtd[w]; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			j := s.frame.At(framePos, i)
			if !s.gtd[i].Queued(j) {
				continue
			}
			lent--
			// Hardware invariant: the schedule is a partial permutation, so
			// ConnectOne cannot fail.
			if err := s.xb.ConnectOne(i, j); err == nil {
				s.gtdIn[w] |= 1 << (uint(i) % 64)
				s.stats.GuaranteedSlotsFired++
			}
		}
	}
	s.stats.GuaranteedSlotsFree += int64(lent)

	// Phase 2: best-effort matching over the idle inputs/outputs. Each
	// free input holding best-effort cells fills its row of the request
	// matrix in one word-wise pass: the line card's eligible-output bitset
	// AND-NOT the crossbar's connected-output bitset.
	s.reqs.ClearAll()
	busy := s.xb.OutputBusyWords()
	any := false
	for w := range s.occBE {
		for word := s.occBE[w] &^ s.gtdIn[w]; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			if s.reqs.SetRowAndNot(i, s.be[i].EligibleBits(), busy) {
				any = true
			}
		}
	}
	if any {
		res := s.matcher.Schedule(s.reqs)
		s.stats.PIMIterationsTotal += int64(res.Iterations)
		s.obsMatchIter.Observe(s.obsShard, int64(res.Iterations))
		s.obsMatched.Observe(s.obsShard, int64(res.Matched))
		// Only an input that requested can be matched.
		for w, word := range s.reqs.Rows() {
			for ; word != 0; word &= word - 1 {
				i := w*64 + bits.TrailingZeros64(word)
				// ConnectOne cannot fail: the matching is legal.
				if j := res.Match[i]; j >= 0 {
					_ = s.xb.ConnectOne(i, j)
				}
			}
		}
	}

	// Phase 3: transfer, in input order.
	out := s.deps[:0]
	for w, word := range s.xb.ConnectedInputWords() {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			j := s.xb.Connected(i)
			bit := uint64(1) << (uint(i) % 64)
			out = append(out, Departure{Output: j, Guaranteed: s.gtdIn[w]&bit != 0})
			d := &out[len(out)-1]
			buf, occ := s.be[i], s.occBE
			if d.Guaranteed {
				buf, occ = s.gtd[i], s.occGtd
			}
			ok := buf.Pop(j, &d.Cell)
			if ok {
				_, err := s.xb.Transfer(i, &d.Cell)
				ok = err == nil
			}
			if !ok {
				// Cannot happen: the connections mirror buffer state.
				out = out[:len(out)-1]
				continue
			}
			s.buffered--
			if d.Guaranteed {
				s.stats.DepartedGuaranteed++
			} else {
				s.stats.DepartedBestEffort++
			}
			if buf.Len() == 0 {
				occ[w] &^= bit
			}
		}
	}
	s.deps = out
	if len(out) == 0 {
		return nil
	}
	s.obsDeparted.Add(s.obsShard, int64(len(out)))
	return out
}

// Oracle is the output-queueing reference the paper compares against
// (§3): an internal fabric sped up by a factor of k, so up to k cells may
// reach the same output in one slot, with unbounded output queues. With
// k = N it is the throughput-optimal (but impractical) switch.
type Oracle struct {
	n     int
	k     int
	out   [][]cell.Cell
	slot  int64
	stats Stats
	rng   *rand.Rand
	// pending arrivals this slot, grouped by output.
	arrivals [][]cell.Cell
	// deps backs the slice returned by Step, reused across slots.
	deps []Departure
}

// NewOracle creates an output-queued switch with speedup k (k<=0 means
// k=n).
func NewOracle(n, k int, seed int64) *Oracle {
	if k <= 0 || k > n {
		k = n
	}
	return &Oracle{
		n:        n,
		k:        k,
		out:      make([][]cell.Cell, n),
		arrivals: make([][]cell.Cell, n),
		rng:      rand.New(rand.NewSource(seed)),
		deps:     make([]Departure, 0, n),
	}
}

// Enqueue presents a cell arriving at an input for the given output. Input
// identity is irrelevant to output queueing except for the k-per-slot
// fabric limit, which is enforced per output in Step.
func (o *Oracle) Enqueue(c cell.Cell, output int) bool {
	if output < 0 || output >= o.n {
		return false
	}
	o.stats.ArrivedBestEffort++
	o.arrivals[output] = append(o.arrivals[output], c)
	return true
}

// Step advances one slot: up to k freshly arrived cells cross the fabric
// to each output queue (excess cells wait at a virtual input stage), and
// each output transmits one cell. Like Switch.Step, the returned slice is
// reused across slots and valid until the next Step call.
func (o *Oracle) Step() []Departure {
	for j := 0; j < o.n; j++ {
		moved := 0
		keep := o.arrivals[j][:0]
		for _, c := range o.arrivals[j] {
			if moved < o.k {
				o.out[j] = append(o.out[j], c)
				moved++
			} else {
				keep = append(keep, c)
			}
		}
		o.arrivals[j] = keep
	}
	deps := o.deps[:0]
	for j := 0; j < o.n; j++ {
		if len(o.out[j]) == 0 {
			continue
		}
		c := o.out[j][0]
		o.out[j] = o.out[j][1:]
		deps = append(deps, Departure{Output: j, Cell: c})
		o.stats.DepartedBestEffort++
	}
	o.slot++
	o.stats.Slots++
	o.deps = deps
	if len(deps) == 0 {
		return nil
	}
	return deps
}

// Stats returns a copy of the oracle's counters.
func (o *Oracle) Stats() Stats { return o.stats }

// Buffered returns the total queued cells (output queues plus fabric
// backlog).
func (o *Oracle) Buffered() int {
	total := 0
	for j := 0; j < o.n; j++ {
		total += len(o.out[j]) + len(o.arrivals[j])
	}
	return total
}
