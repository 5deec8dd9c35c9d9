// Package flowcontrol implements AN2's credit-based, per-virtual-circuit
// flow control for best-effort traffic (paper §5, Figure 4).
//
// Buffers for each best-effort virtual circuit traversing a link are
// allocated at the downstream switch. The upstream switch maintains a
// credit balance — the number of buffers known to be empty. Sending a cell
// decrements the balance; when the downstream switch frees a buffer by
// forwarding a cell through its crossbar, it returns a credit, and the
// balance is incremented. Cells are transmitted only for circuits with a
// positive balance, so cells are never dropped.
//
// The scheme is robust to lost flow-control messages: a lost credit only
// reduces performance, never correctness, and a periodic resynchronization
// restores the lost capacity. The resynchronization here uses cumulative
// counters and epochs: the upstream sends a marker; the downstream replies
// with its cumulative forwarded count; the upstream recomputes the balance
// as capacity − (sent − forwarded) and bumps the epoch so stale in-flight
// credits are not double-counted.
package flowcontrol

import (
	"fmt"

	"repro/internal/cell"
)

// CreditState is the upstream bookkeeping for one circuit over one link.
type CreditState struct {
	// Capacity is the downstream buffer allocation in cells (the initial
	// credit balance).
	Capacity int
	// Balance is the current credit balance.
	Balance int
	// Sent is the cumulative count of cells sent.
	Sent uint64
	// Epoch guards against stale credits after a resync.
	Epoch uint32
}

// CanSend reports whether the circuit has credit.
func (c *CreditState) CanSend() bool { return c.Balance > 0 }

// Link simulates one full-duplex link with credit flow control: an
// upstream switch sending best-effort cells to a downstream switch that
// buffers them per circuit and forwards them through its crossbar.
//
// Time is slotted: one Step is one cell slot. The data direction carries at
// most one cell per slot (the link rate); the reverse direction carries at
// most one credit message per slot.
type Link struct {
	latency int64 // propagation delay, slots, each direction

	credits map[cell.VCI]*CreditState

	// source-side queues of cells waiting for credit, per circuit.
	pending map[cell.VCI][]cell.Cell
	// rrOrder fixes a deterministic round-robin order over circuits.
	rrOrder []cell.VCI
	rrNext  int

	// in-flight cells and credits with their arrival slots.
	flightCells   []flightCell
	flightCredits []flightCredit

	// downstream per-circuit buffers.
	buffers map[cell.VCI][]cell.Cell
	// forwarded is the downstream cumulative forwarded count per circuit.
	forwarded map[cell.VCI]uint64
	// downEpoch is the downstream's view of each circuit's credit epoch;
	// it advances when a resync marker arrives, so credits generated
	// after the marker carry the new epoch.
	downEpoch map[cell.VCI]uint32
	// blocked marks circuits whose downstream output is congested: the
	// downstream cannot forward their cells (fault injection: tests set it).
	blocked map[cell.VCI]bool

	// resync markers in flight (upstream->downstream), and replies.
	flightMarkers []flightMarker
	flightReplies []flightReply

	// loseNext makes the next credit sent vanish (fault injection).
	loseNext bool

	slot int64

	stats Stats
}

type flightCell struct {
	at int64
	c  cell.Cell
}

type flightCredit struct {
	at    int64
	vc    cell.VCI
	epoch uint32
	// lost credits are marked rather than removed so tests can count them.
	lost bool
}

type flightMarker struct {
	at    int64
	vc    cell.VCI
	epoch uint32
}

type flightReply struct {
	at        int64
	vc        cell.VCI
	epoch     uint32
	forwarded uint64
}

// Stats counts link activity.
type Stats struct {
	CellsSent      int64
	CellsDelivered int64 // forwarded by the downstream switch
	CreditsSent    int64
	CreditsLost    int64
	CreditsApplied int64
	CreditsStale   int64
	Resyncs        int64
	// MaxOccupancy is the peak downstream buffer occupancy per circuit
	// observed; it must never exceed the circuit's capacity.
	MaxOccupancy map[cell.VCI]int
}

// NewLink creates a link with the given one-way propagation latency in
// slots (>= 1).
func NewLink(latency int64) (*Link, error) {
	if latency < 1 {
		return nil, fmt.Errorf("flowcontrol: latency %d", latency)
	}
	return &Link{
		latency:   latency,
		credits:   make(map[cell.VCI]*CreditState),
		pending:   make(map[cell.VCI][]cell.Cell),
		buffers:   make(map[cell.VCI][]cell.Cell),
		forwarded: make(map[cell.VCI]uint64),
		downEpoch: make(map[cell.VCI]uint32),
		blocked:   make(map[cell.VCI]bool),
		stats:     Stats{MaxOccupancy: make(map[cell.VCI]int)},
	}, nil
}

// RoundTripSlots returns the credit round-trip in slots: the time from
// sending a cell to receiving the credit it generates, assuming immediate
// forwarding (one slot of downstream service).
func (l *Link) RoundTripSlots() int64 { return 2*l.latency + 1 }

// OpenCircuit allocates downstream buffers for a circuit. The paper sizes
// capacity to a link round-trip so an uncontended circuit can run at full
// link rate.
func (l *Link) OpenCircuit(vc cell.VCI, capacity int) error {
	if capacity < 1 {
		return fmt.Errorf("flowcontrol: capacity %d for vc %d", capacity, vc)
	}
	if _, exists := l.credits[vc]; exists {
		return fmt.Errorf("flowcontrol: circuit %d already open", vc)
	}
	l.credits[vc] = &CreditState{Capacity: capacity, Balance: capacity}
	l.rrOrder = append(l.rrOrder, vc)
	return nil
}

// CloseCircuit releases a circuit's state (page-out / teardown). Any
// buffered or in-flight cells for it are discarded.
func (l *Link) CloseCircuit(vc cell.VCI) {
	delete(l.credits, vc)
	delete(l.pending, vc)
	delete(l.buffers, vc)
	delete(l.forwarded, vc)
	delete(l.downEpoch, vc)
	delete(l.blocked, vc)
	for i := range l.rrOrder {
		if l.rrOrder[i] == vc {
			l.rrOrder = append(l.rrOrder[:i], l.rrOrder[i+1:]...)
			break
		}
	}
}

// Inject queues a cell at the upstream source for the given circuit.
func (l *Link) Inject(vc cell.VCI, c cell.Cell) error {
	if _, ok := l.credits[vc]; !ok {
		return fmt.Errorf("flowcontrol: circuit %d not open", vc)
	}
	c.VC = vc
	l.pending[vc] = append(l.pending[vc], c)
	return nil
}

// LoseNextCredit makes the next credit sent vanish in transit (fault
// injection).
func (l *Link) LoseNextCredit() { l.loseNext = true }

// Resync initiates credit resynchronization for a circuit: a marker
// travels downstream, the reply carries the cumulative forwarded count,
// and on receipt the upstream recomputes the balance and bumps the epoch.
func (l *Link) Resync(vc cell.VCI) error {
	cs, ok := l.credits[vc]
	if !ok {
		return fmt.Errorf("flowcontrol: circuit %d not open", vc)
	}
	l.stats.Resyncs++
	l.flightMarkers = append(l.flightMarkers, flightMarker{
		at:    l.slot + l.latency,
		vc:    vc,
		epoch: cs.Epoch + 1,
	})
	return nil
}

// Balance returns the upstream credit balance for a circuit.
func (l *Link) Balance(vc cell.VCI) int {
	if cs, ok := l.credits[vc]; ok {
		return cs.Balance
	}
	return 0
}

// Buffered returns the downstream buffer occupancy for a circuit.
func (l *Link) Buffered(vc cell.VCI) int { return len(l.buffers[vc]) }

// PendingAtSource returns the cells still waiting at the source.
func (l *Link) PendingAtSource(vc cell.VCI) int { return len(l.pending[vc]) }

// Stats returns a copy of the counters (the MaxOccupancy map is shared;
// treat it as read-only).
func (l *Link) Stats() Stats { return l.stats }

// Slot returns the current slot number.
func (l *Link) Slot() int64 { return l.slot }

// Step advances the link one cell slot, returning the cells the
// downstream switch forwarded this slot (delivered to the next hop or
// host).
func (l *Link) Step() []cell.Cell {
	now := l.slot

	// 1. Deliver arrivals: cells reaching the downstream buffer.
	rest := l.flightCells[:0]
	for _, fc := range l.flightCells {
		if fc.at <= now {
			l.buffers[fc.c.VC] = append(l.buffers[fc.c.VC], fc.c)
			if occ := len(l.buffers[fc.c.VC]); occ > l.stats.MaxOccupancy[fc.c.VC] {
				l.stats.MaxOccupancy[fc.c.VC] = occ
			}
		} else {
			rest = append(rest, fc)
		}
	}
	l.flightCells = rest

	// 2. Deliver resync markers downstream: the downstream adopts the new
	// epoch (credits it sends from now on carry it) and replies with its
	// cumulative forwarded count.
	restM := l.flightMarkers[:0]
	for _, m := range l.flightMarkers {
		if m.at <= now {
			if m.epoch > l.downEpoch[m.vc] {
				l.downEpoch[m.vc] = m.epoch
			}
			l.flightReplies = append(l.flightReplies, flightReply{
				at:        now + l.latency,
				vc:        m.vc,
				epoch:     m.epoch,
				forwarded: l.forwarded[m.vc],
			})
		} else {
			restM = append(restM, m)
		}
	}
	l.flightMarkers = restM

	// 3. Deliver resync replies upstream (before credits, so a new-epoch
	// credit arriving in the same slot is applied, not discarded as
	// stale): recompute the balance as capacity − outstanding, where
	// outstanding counts every cell sent but not yet forwarded as of the
	// marker — exactly the cells whose credits are still to come under
	// the new epoch.
	restR := l.flightReplies[:0]
	for _, r := range l.flightReplies {
		if r.at <= now {
			cs := l.credits[r.vc]
			if cs == nil {
				continue
			}
			if r.epoch > cs.Epoch {
				cs.Epoch = r.epoch
				outstanding := int(cs.Sent - r.forwarded)
				bal := cs.Capacity - outstanding
				if bal < 0 {
					bal = 0
				}
				cs.Balance = bal
			}
		} else {
			restR = append(restR, r)
		}
	}
	l.flightReplies = restR

	// 4. Deliver credits to the upstream.
	restCr := l.flightCredits[:0]
	for _, cr := range l.flightCredits {
		if cr.at <= now {
			if cr.lost {
				// vanished in transit; already counted.
				continue
			}
			cs := l.credits[cr.vc]
			if cs == nil {
				continue
			}
			if cr.epoch != cs.Epoch {
				l.stats.CreditsStale++
				continue
			}
			if cs.Balance < cs.Capacity {
				cs.Balance++
			}
			l.stats.CreditsApplied++
		} else {
			restCr = append(restCr, cr)
		}
	}
	l.flightCredits = restCr

	// 5. Downstream service: forward one cell (round-robin over circuits
	// with buffered cells, skipping blocked ones) and return a credit.
	var delivered []cell.Cell
	if vc, ok := l.pickDownstream(); ok {
		c := l.buffers[vc][0]
		l.buffers[vc] = l.buffers[vc][1:]
		l.forwarded[vc]++
		l.stats.CellsDelivered++
		delivered = append(delivered, c)
		cr := flightCredit{at: now + l.latency, vc: vc, epoch: l.downEpoch[vc]}
		if l.loseNext {
			cr.lost = true
			l.loseNext = false
			l.stats.CreditsLost++
		}
		l.stats.CreditsSent++
		l.flightCredits = append(l.flightCredits, cr)
	}

	// 6. Upstream transmission: one cell for a circuit with credit and
	// pending cells, round-robin.
	if vc, ok := l.pickUpstream(); ok {
		cs := l.credits[vc]
		c := l.pending[vc][0]
		l.pending[vc] = l.pending[vc][1:]
		cs.Balance--
		cs.Sent++
		l.stats.CellsSent++
		l.flightCells = append(l.flightCells, flightCell{at: now + l.latency, c: c})
	}

	l.slot++
	return delivered
}

func (l *Link) pickDownstream() (cell.VCI, bool) {
	n := len(l.rrOrder)
	for k := 0; k < n; k++ {
		vc := l.rrOrder[(l.rrNext+k)%n]
		if l.blocked[vc] || len(l.buffers[vc]) == 0 {
			continue
		}
		return vc, true
	}
	return 0, false
}

func (l *Link) pickUpstream() (cell.VCI, bool) {
	n := len(l.rrOrder)
	for k := 0; k < n; k++ {
		idx := (l.rrNext + k) % n
		vc := l.rrOrder[idx]
		cs := l.credits[vc]
		if cs == nil || !cs.CanSend() || len(l.pending[vc]) == 0 {
			continue
		}
		l.rrNext = (idx + 1) % n
		return vc, true
	}
	return 0, false
}

// CheckInvariant verifies credit conservation for a circuit with no credit
// loss since the last resync: balance + cells-in-flight + downstream
// occupancy + credits-in-flight == capacity. With losses the left side is
// strictly less than capacity. It returns the left-hand side.
func (l *Link) CheckInvariant(vc cell.VCI) (int, error) {
	cs, ok := l.credits[vc]
	if !ok {
		return 0, fmt.Errorf("flowcontrol: circuit %d not open", vc)
	}
	inFlightCells := 0
	for _, fc := range l.flightCells {
		if fc.c.VC == vc {
			inFlightCells++
		}
	}
	inFlightCredits := 0
	for _, cr := range l.flightCredits {
		if cr.vc == vc && !cr.lost && cr.epoch == cs.Epoch {
			inFlightCredits++
		}
	}
	total := cs.Balance + inFlightCells + len(l.buffers[vc]) + inFlightCredits
	if total > cs.Capacity {
		return total, fmt.Errorf("flowcontrol: conservation exceeded: %d > capacity %d", total, cs.Capacity)
	}
	return total, nil
}
