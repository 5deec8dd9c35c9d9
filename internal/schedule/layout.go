package schedule

import (
	"fmt"
)

// This file implements the paper's proposed frame layout policies for
// guaranteed scheduling (§4), which improve best-effort service.

// Layout chooses how reserved connections are arranged across the frame.
// Best-effort cells can only use slots where neither their input nor their
// output carries reserved traffic, so the arrangement matters (paper §4:
// "Best-effort cells will also fare better if the unreserved slots are
// distributed throughout the frame rather than grouped at one point").
type Layout int

const (
	// LayoutAsInserted keeps the slots exactly where Slepian–Duguid
	// insertion placed them (the baseline).
	LayoutAsInserted Layout = iota + 1
	// LayoutPacked re-arranges reserved traffic into the smallest prefix
	// of slots that can carry it, leaving the remaining slots completely
	// free for best-effort traffic.
	LayoutPacked
	// LayoutSpread packs reserved traffic into the minimum number of
	// busy slots, then distributes those busy slots evenly through the
	// frame, so best-effort opportunities recur at a steady cadence.
	LayoutSpread
)

// String names the layout.
func (l Layout) String() string {
	switch l {
	case LayoutAsInserted:
		return "as-inserted"
	case LayoutPacked:
		return "packed"
	case LayoutSpread:
		return "spread"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// Relayout rebuilds the schedule under the given layout policy, preserving
// the reservation matrix. It returns the rebuilt schedule (the receiver is
// unchanged).
//
// Packing uses the Slepian–Duguid theorem itself: the minimum number of
// busy slots equals the maximum row/column load Δ, and inserting every
// reservation into a Δ-slot frame always succeeds.
func (s *Schedule) Relayout(policy Layout) (*Schedule, error) {
	res := s.Reservations()
	switch policy {
	case LayoutAsInserted:
		out, err := New(s.n, s.slots)
		if err != nil {
			return nil, err
		}
		for k, j := range s.outOf {
			if j >= 0 {
				i := k % s.n
				out.place(k/s.n, i, int(j))
				out.rowLoad[i]++
				out.colLoad[j]++
			}
		}
		return out, nil
	case LayoutPacked, LayoutSpread:
		delta := 0
		for i := 0; i < s.n; i++ {
			if s.rowLoad[i] > delta {
				delta = s.rowLoad[i]
			}
			if s.colLoad[i] > delta {
				delta = s.colLoad[i]
			}
		}
		if delta == 0 {
			return New(s.n, s.slots)
		}
		compact, err := New(s.n, delta)
		if err != nil {
			return nil, err
		}
		for i := 0; i < s.n; i++ {
			for j := 0; j < s.n; j++ {
				if res[i][j] > 0 {
					if _, err := compact.InsertK(i, j, res[i][j]); err != nil {
						return nil, fmt.Errorf("relayout compaction: %w", err)
					}
				}
			}
		}
		out, err := New(s.n, s.slots)
		if err != nil {
			return nil, err
		}
		for t := 0; t < delta; t++ {
			target := t // packed: busy slots first
			if policy == LayoutSpread {
				target = t * s.slots / delta // spread evenly
			}
			for i, j := range compact.row(t) {
				if j >= 0 {
					out.place(target, i, int(j))
					out.rowLoad[i]++
					out.colLoad[j]++
				}
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("schedule: unknown layout %d", policy)
	}
}

// BusySlots returns the number of slots with at least one reserved
// connection.
func (s *Schedule) BusySlots() int {
	busy := 0
	for _, c := range s.count {
		if c > 0 {
			busy++
		}
	}
	return busy
}
