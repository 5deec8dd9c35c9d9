package flowcontrol

import (
	"fmt"
	"sort"

	"repro/internal/cell"
)

// This file implements the paper's proposed §5 extension:
//
//	"The initial AN2 implementation statically allocates this number of
//	 buffers to each best-effort virtual circuit. For a lightly-used
//	 circuit, this may be more buffers than necessary. More sophisticated
//	 schemes, such as dynamically altering buffer allocation based on use,
//	 may be considered later. This could allow the link to support more
//	 virtual circuits without adversely affecting performance."
//
// Allocator divides a fixed downstream memory pool among the circuits of a
// link in proportion to recent use, clamped between a floor (deadlock
// freedom needs just one buffer per circuit) and the round-trip ceiling
// (more than an RTT of credits buys nothing).

// SetCapacity changes a circuit's downstream buffer allocation in place,
// crediting or debiting the upstream balance by the difference. Shrinking
// is clamped so the allocation never drops below the buffers currently in
// use (outstanding cells keep their homes); the actual new capacity is
// returned.
func (l *Link) SetCapacity(vc cell.VCI, capacity int) (int, error) {
	cs, ok := l.credits[vc]
	if !ok {
		return 0, fmt.Errorf("flowcontrol: circuit %d not open", vc)
	}
	if capacity < 1 {
		capacity = 1
	}
	// Outstanding = capacity - balance: cells in flight, buffered, or
	// with credits on the way back. The allocation cannot shrink below
	// that.
	outstanding := cs.Capacity - cs.Balance
	if capacity < outstanding {
		capacity = outstanding
	}
	delta := capacity - cs.Capacity
	cs.Capacity = capacity
	cs.Balance += delta
	if cs.Balance < 0 {
		cs.Balance = 0 // defensive; unreachable given the clamp
	}
	return capacity, nil
}

// Capacity returns the current allocation for a circuit.
func (l *Link) Capacity(vc cell.VCI) int {
	if cs, ok := l.credits[vc]; ok {
		return cs.Capacity
	}
	return 0
}

// SentSince reports the cells sent on vc since the given previous reading,
// along with the new reading (for demand measurement).
func (l *Link) SentSince(vc cell.VCI, prev uint64) (delta int, now uint64) {
	cs, ok := l.credits[vc]
	if !ok {
		return 0, prev
	}
	return int(cs.Sent - prev), cs.Sent
}

// Allocator periodically re-divides a memory pool among a link's circuits
// by recent demand.
type Allocator struct {
	link *Link
	// Pool is the total downstream buffer memory in cells.
	pool int
	// Floor is the minimum per-circuit allocation (>= 1; deadlock
	// freedom needs only 1).
	floor int
	// Ceiling is the maximum useful per-circuit allocation (the
	// round-trip; more buys nothing).
	ceiling int

	lastSent map[cell.VCI]uint64
}

// NewAllocator creates an allocator over the link's circuits. pool is the
// memory budget in cells; floor/ceiling clamp per-circuit allocations
// (ceiling 0 means the link round-trip).
func NewAllocator(l *Link, pool, floor, ceiling int) (*Allocator, error) {
	if pool < 1 {
		return nil, fmt.Errorf("flowcontrol: pool %d", pool)
	}
	if floor < 1 {
		floor = 1
	}
	if ceiling <= 0 {
		ceiling = int(l.RoundTripSlots())
	}
	if ceiling < floor {
		ceiling = floor
	}
	return &Allocator{
		link:     l,
		pool:     pool,
		floor:    floor,
		ceiling:  ceiling,
		lastSent: make(map[cell.VCI]uint64),
	}, nil
}

// Rebalance re-divides the pool by demand observed since the last call:
// every circuit gets the floor; the remaining budget is dealt to circuits
// in order of demand (cells sent since last rebalance), each topped up
// toward the ceiling in proportion to its demand share.
func (a *Allocator) Rebalance() {
	circuits := append([]cell.VCI(nil), a.link.rrOrder...)
	if len(circuits) == 0 {
		return
	}
	demand := make(map[cell.VCI]int, len(circuits))
	total := 0
	for _, vc := range circuits {
		d, now := a.link.SentSince(vc, a.lastSent[vc])
		a.lastSent[vc] = now
		demand[vc] = d
		total += d
	}
	budget := a.pool - a.floor*len(circuits)
	if budget < 0 {
		budget = 0
	}
	want := make(map[cell.VCI]int, len(circuits))
	if total == 0 {
		// No signal: split evenly.
		for _, vc := range circuits {
			want[vc] = a.floor + budget/len(circuits)
		}
	} else {
		for _, vc := range circuits {
			want[vc] = a.floor + budget*demand[vc]/total
		}
	}
	// Clamp to the ceiling and redistribute the excess to the hungriest
	// unclamped circuits.
	excess := 0
	for _, vc := range circuits {
		if want[vc] > a.ceiling {
			excess += want[vc] - a.ceiling
			want[vc] = a.ceiling
		}
	}
	if excess > 0 {
		order := append([]cell.VCI(nil), circuits...)
		sort.Slice(order, func(i, j int) bool { return demand[order[i]] > demand[order[j]] })
		for _, vc := range order {
			if excess == 0 {
				break
			}
			room := a.ceiling - want[vc]
			if room <= 0 {
				continue
			}
			give := room
			if give > excess {
				give = excess
			}
			want[vc] += give
			excess -= give
		}
	}
	// Apply: shrink first (freeing pool), then grow. SetCapacity's clamp
	// means a busy circuit may briefly keep more than its target; the
	// next rebalance converges.
	for _, vc := range circuits {
		if want[vc] < a.link.Capacity(vc) {
			_, _ = a.link.SetCapacity(vc, want[vc])
		}
	}
	for _, vc := range circuits {
		if want[vc] > a.link.Capacity(vc) {
			_, _ = a.link.SetCapacity(vc, want[vc])
		}
	}
}
