// Package cbsched models a crosspoint-buffered (CICQ) switch, the second
// scheduler family that supplanted centralized matching (see "Distributed
// Scheduling Algorithms for Crosspoint-Buffered Switches" in PAPERS.md).
//
// Where AN2's unbuffered crossbar needs one global conflict-free matching
// per slot — the whole reason PIM exists — a crosspoint-buffered fabric
// puts a small queue at every (input, output) crosspoint. Scheduling then
// decomposes into 2N fully independent arbiters with no communication at
// all:
//
//   - each input arbiter picks one virtual output queue whose crosspoint
//     buffer has space and forwards one cell into the fabric;
//   - each output arbiter picks one non-empty crosspoint buffer in its
//     column and transmits its head cell.
//
// Both arbiters here are round-robin, the classic RR/RR-CICQ design: with
// even 1-cell crosspoint buffers it sustains full uniform load, and deeper
// buffers (a round-trip's worth, for fabrics where the arbiters are a
// cable-length away from the crosspoints) absorb bursts. The cost is N²
// buffer memory in the fabric — exactly the hardware AN2's 1993 ASIC
// budget could not afford, which is why the paper bet on PIM instead.
// Experiment E26 quantifies the trade.
//
// The model is slot-synchronous and deterministic: each Step first runs
// the output arbiters (draining crosspoints), then the input arbiters
// (refilling them), so a cell spends at least one slot in its crosspoint
// queue, as in hardware.
package cbsched

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/obs"
	"repro/internal/switchnode"
)

// DefaultCrosspointDepth is the 1-cell crosspoint buffer of the minimal
// CICQ design.
const DefaultCrosspointDepth = 1

// Config configures a crosspoint-buffered switch.
type Config struct {
	// N is the port count.
	N int
	// CrosspointDepth bounds each crosspoint queue in cells (default
	// DefaultCrosspointDepth).
	CrosspointDepth int
	// BufferLimit bounds each input's virtual output queue; 0 = unbounded.
	BufferLimit int
	// Obs, if set, records the fabric's resident crosspoint-cell count into
	// the slot-clock series cbsched_crosspoint_cells each Step — the
	// distributed-arbiter occupancy view the centralized schedulers get from
	// switch_matched_pairs. Nil disables at no cost.
	Obs *obs.Registry
}

// Stats counts switch activity.
type Stats struct {
	Arrived  int64
	Dropped  int64
	Departed int64
	Slots    int64
	// CrosspointOccupancyMax is the high-water mark of cells resident in
	// the fabric's crosspoint buffers at slot boundaries.
	CrosspointOccupancyMax int64
}

// Switch is a crosspoint-buffered switch. It is not safe for concurrent
// use.
type Switch struct {
	n        int
	depth    int
	limit    int
	voq      [][][]cell.Cell // voq[i][j]: input i's queue for output j
	xpq      [][][]cell.Cell // xpq[i][j]: crosspoint buffer
	inPtr    []int           // input arbiter round-robin pointers
	outPtr   []int           // output arbiter round-robin pointers
	resident int64
	slot     int64
	stats    Stats
	deps     []switchnode.Departure
	obsOcc   *obs.Series
}

// New creates a crosspoint-buffered switch.
func New(cfg Config) (*Switch, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("cbsched: size %d", cfg.N)
	}
	if cfg.CrosspointDepth == 0 {
		cfg.CrosspointDepth = DefaultCrosspointDepth
	}
	if cfg.CrosspointDepth < 1 {
		return nil, fmt.Errorf("cbsched: crosspoint depth %d", cfg.CrosspointDepth)
	}
	s := &Switch{
		n:      cfg.N,
		depth:  cfg.CrosspointDepth,
		limit:  cfg.BufferLimit,
		voq:    make([][][]cell.Cell, cfg.N),
		xpq:    make([][][]cell.Cell, cfg.N),
		inPtr:  make([]int, cfg.N),
		outPtr: make([]int, cfg.N),
		obsOcc: cfg.Obs.Series("cbsched_crosspoint_cells"),
	}
	for i := 0; i < cfg.N; i++ {
		s.voq[i] = make([][]cell.Cell, cfg.N)
		s.xpq[i] = make([][]cell.Cell, cfg.N)
	}
	return s, nil
}

// N returns the port count.
func (s *Switch) N() int { return s.n }

// Stats returns a copy of the switch counters.
func (s *Switch) Stats() Stats { return s.stats }

// Enqueue places a cell in input's virtual output queue for output. It
// reports false if the cell was dropped (queue at BufferLimit).
func (s *Switch) Enqueue(input int, c cell.Cell, output int) bool {
	if input < 0 || input >= s.n || output < 0 || output >= s.n {
		return false
	}
	s.stats.Arrived++
	if s.limit > 0 && len(s.voq[input][output]) >= s.limit {
		s.stats.Dropped++
		return false
	}
	s.voq[input][output] = append(s.voq[input][output], c)
	return true
}

// Buffered returns the number of cells queued at input (VOQs only, not
// fabric crosspoints).
func (s *Switch) Buffered(input int) int {
	total := 0
	for j := 0; j < s.n; j++ {
		total += len(s.voq[input][j])
	}
	return total
}

// Step advances the switch one cell slot and returns the departures. The
// output arbiters run first (each drains one crosspoint buffer in its
// column), then the input arbiters (each forwards one cell into a
// crosspoint buffer with space); both stages are N independent round-robin
// decisions with no shared state.
func (s *Switch) Step() []switchnode.Departure {
	s.deps = s.deps[:0]
	// Output arbiters: column j picks the first non-empty crosspoint at or
	// after its pointer.
	for j := 0; j < s.n; j++ {
		for k := 0; k < s.n; k++ {
			i := (s.outPtr[j] + k) % s.n
			q := s.xpq[i][j]
			if len(q) == 0 {
				continue
			}
			c := q[0]
			s.xpq[i][j] = q[1:]
			s.resident--
			s.deps = append(s.deps, switchnode.Departure{Output: j, Cell: c})
			s.stats.Departed++
			s.outPtr[j] = (i + 1) % s.n
			break
		}
	}
	// Input arbiters: row i picks the first VOQ with a waiting cell whose
	// crosspoint has space.
	for i := 0; i < s.n; i++ {
		for k := 0; k < s.n; k++ {
			j := (s.inPtr[i] + k) % s.n
			if len(s.voq[i][j]) == 0 || len(s.xpq[i][j]) >= s.depth {
				continue
			}
			c := s.voq[i][j][0]
			s.voq[i][j] = s.voq[i][j][1:]
			s.xpq[i][j] = append(s.xpq[i][j], c)
			s.resident++
			s.inPtr[i] = (j + 1) % s.n
			break
		}
	}
	if s.resident > s.stats.CrosspointOccupancyMax {
		s.stats.CrosspointOccupancyMax = s.resident
	}
	s.obsOcc.Record(s.slot, s.resident)
	s.slot++
	s.stats.Slots++
	return s.deps
}
