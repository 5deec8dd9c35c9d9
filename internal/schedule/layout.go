package schedule

import (
	"fmt"
)

// This file implements the paper's proposed extensions to guaranteed
// scheduling (§4): frame layout policies that improve best-effort service,
// and nested frames that trade allocation granularity against jitter.

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
		for t := 0; t < s.slots; t++ {
			for i, j := range s.row(t) {
				if j >= 0 {
					out.place(t, i, int(j))
					out.rowLoad[i]++
					out.colLoad[j]++
				}
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

// Nested is the paper's nested-frame extension: allocation is based on the
// full frame, but cell re-ordering is restricted to subframe units, which
// bounds jitter to a subframe rather than a frame. For example, allocation
// on 1024-slot frames with re-ordering restricted to 128-slot units.
type Nested struct {
	sub       []*Schedule
	subSlots  int
	frameSize int
	n         int
}

// NewNested creates a nested schedule: the frame of frameSlots is divided
// into frameSlots/subSlots subframes, each independently scheduled.
// subSlots must divide frameSlots.
func NewNested(n, frameSlots, subSlots int) (*Nested, error) {
	if subSlots < 1 || frameSlots < 1 || frameSlots%subSlots != 0 {
		return nil, fmt.Errorf("schedule: subframe %d must divide frame %d", subSlots, frameSlots)
	}
	k := frameSlots / subSlots
	nest := &Nested{subSlots: subSlots, frameSize: frameSlots, n: n}
	for s := 0; s < k; s++ {
		sub, err := New(n, subSlots)
		if err != nil {
			return nil, err
		}
		nest.sub = append(nest.sub, sub)
	}
	return nest, nil
}

// Subframes returns the number of subframes.
func (ns *Nested) Subframes() int { return len(ns.sub) }

// Insert adds a reservation of k cells per (full) frame, distributing the
// cells across subframes as evenly as possible: each subframe gets either
// ⌊k/m⌋ or ⌈k/m⌉ cells. A guaranteed cell therefore never waits more than
// about one subframe beyond its ideal departure, which is the jitter
// improvement the extension targets.
func (ns *Nested) Insert(p, q, k int) error {
	m := len(ns.sub)
	base := k / m
	extra := k % m
	for idx, sub := range ns.sub {
		kk := base
		if idx < extra {
			kk++
		}
		if kk == 0 {
			continue
		}
		if _, err := sub.InsertK(p, q, kk); err != nil {
			return fmt.Errorf("subframe %d: %w", idx, err)
		}
	}
	return nil
}

// At returns the output input i sends to in absolute slot t of the full
// frame, or -1.
func (ns *Nested) At(t, input int) int {
	if t < 0 || t >= ns.frameSize {
		return -1
	}
	return ns.sub[t/ns.subSlots].At(t%ns.subSlots, input)
}

// Flatten renders the nested schedule as one flat frame schedule over the
// full frame, suitable for installing into a switch (switchnode.SetFrame).
func (ns *Nested) Flatten() (*Schedule, error) {
	return FromAssignments(ns.n, ns.frameSize, ns.At)
}

// MaxGap returns, for the reservation (p,q), the largest distance in slots
// between consecutive scheduled cells across the whole frame (wrapping),
// a direct measure of jitter. It returns 0 if the pair has no cells.
func MaxGap(at func(t, input int) int, frameSlots, p, q int) int {
	var slots []int
	for t := 0; t < frameSlots; t++ {
		if at(t, p) == q {
			slots = append(slots, t)
		}
	}
	if len(slots) == 0 {
		return 0
	}
	if len(slots) == 1 {
		return frameSlots
	}
	maxGap := 0
	for i := 1; i < len(slots); i++ {
		if g := slots[i] - slots[i-1]; g > maxGap {
			maxGap = g
		}
	}
	if wrap := frameSlots - slots[len(slots)-1] + slots[0]; wrap > maxGap {
		maxGap = wrap
	}
	return maxGap
}
