package simnet

import (
	"fmt"
	"sort"

	"repro/internal/topology"
)

// Wake-set slot engine — the only stepping engine.
//
// A switch that finishes a slot quiescent (see switchnode.Quiescent) is put
// to sleep — dropped from the active list and skipped entirely — and its
// slot clock is settled lazily, in one batch AdvanceIdle call, when
// something next touches it. A slot therefore costs O(awake switches +
// cells in motion), whatever the topology's size. The invariant that makes
// this indistinguishable from visiting every switch every slot is
//
//	asleep ⇒ quiescent for the whole sleeping span,
//
// which holds because a quiescent switch cannot create work for itself:
// only an external event — a cell arriving off a link, a reservation
// installed by circuit setup/reroute/restore, a fault transition, or a
// direct mutation through the Switch accessor — can end quiescence, and
// every one of those paths wakes the switch first. Cells on links belong
// to the network, not to a switch, and Step's delivery phase is the single
// point where one enters a switch, so that is where arrivals wake their
// target; no index of pending arrivals is kept. A wake that turns out to be
// unnecessary is observation-neutral: the switch re-sleeps at the end of
// the slot with identical counters. CheckEngineInvariant states the
// invariant as a per-slot check.
//
// Stepping is sequential on the caller's goroutine. Fanning switches out
// across a worker pool was measured slower at every fabric size tried
// (DESIGN.md §13), so no goroutine is ever spawned per slot.
const (
	swAwake uint8 = iota
	swAsleep
	swDead
)

// initWake starts every live switch awake; each sleeps itself at the end
// of its first quiescent slot.
func (n *Network) initWake() {
	n.swState = make([]uint8, len(n.switchOrder))
	n.sleepSince = make([]int64, len(n.switchOrder))
	n.active = make([]int, len(n.switchOrder))
	for idx := range n.active {
		n.active[idx] = idx
	}
}

// insertActive adds idx to the sorted active list (no-op if present).
func (n *Network) insertActive(idx int) {
	i := sort.SearchInts(n.active, idx)
	if i < len(n.active) && n.active[i] == idx {
		return
	}
	n.active = append(n.active, 0)
	copy(n.active[i+1:], n.active[i:])
	n.active[i] = idx
}

// removeActive removes idx from the sorted active list (no-op if absent).
func (n *Network) removeActive(idx int) {
	i := sort.SearchInts(n.active, idx)
	if i < len(n.active) && n.active[i] == idx {
		n.active = append(n.active[:i], n.active[i+1:]...)
	}
}

// wakeIdx wakes the switch at switchOrder position idx: the skipped span
// [sleepSince, n.slot) is settled in one AdvanceIdle batch and credited to
// IdleStepsSkipped, and the switch rejoins the active list for the current
// slot. Waking an awake or dead switch is a no-op.
func (n *Network) wakeIdx(idx int) {
	if n.swState[idx] != swAsleep {
		return
	}
	if k := n.slot - n.sleepSince[idx]; k > 0 {
		n.switchByIdx[idx].AdvanceIdle(k)
		n.stats.IdleStepsSkipped += k
	}
	n.asleep--
	n.sleepSum -= n.sleepSince[idx]
	n.swState[idx] = swAwake
	n.insertActive(idx)
}

// wakeNode is wakeIdx keyed by NodeID; a no-op for non-switch nodes.
func (n *Network) wakeNode(id topology.NodeID) {
	if idx, ok := n.orderIdx[id]; ok {
		n.wakeIdx(idx)
	}
}

// stepAwake advances the awake switches one slot, filling stepDeps by
// switchOrder position. A quiescent switch is put to sleep instead: it
// leaves the active list with sleepSince = now — this slot is the first of
// the skipped span, settled with the rest when the switch next wakes. The
// departure slices are scratch owned by each switch, valid until that
// switch's next Step — i.e. for the rest of this slot.
func (n *Network) stepAwake(now int64) {
	kept := n.active[:0]
	for _, idx := range n.active {
		sw := n.switchByIdx[idx]
		if sw.Quiescent() {
			n.swState[idx] = swAsleep
			n.sleepSince[idx] = now
			n.asleep++
			n.sleepSum += now
			continue
		}
		n.stepDeps[idx] = sw.Step()
		kept = append(kept, idx)
	}
	n.active = kept
}

// pendingIdle returns the idle slots accrued by still-sleeping switches
// that have not yet been folded into stats.IdleStepsSkipped:
// Σ(slot − sleepSince) over the sleeping set, kept as a running count and
// sum so reading it does not visit the switches.
func (n *Network) pendingIdle() int64 {
	return n.asleep*n.slot - n.sleepSum
}

// CheckEngineInvariant verifies, between slots, what the single engine
// rests on: every live switch's occupancy sets match its buffers
// (switchnode's CheckInvariant); every sleeping switch is quiescent; the
// active list is exactly the awake switches, sorted and duplicate-free; the
// running sleep totals match the per-switch states; the ready list is exactly
// the circuits with cells queued at their source, ascending; and everything
// on a link is filed under its arrival slot, within the calendar's reach, and
// counted. It reads only — calling it never wakes a switch or perturbs a
// trajectory.
func (n *Network) CheckEngineInvariant() error {
	var asleep, sleepSum int64
	awake := 0
	for idx, st := range n.swState {
		if st != swDead {
			if err := n.switchByIdx[idx].CheckInvariant(); err != nil {
				return fmt.Errorf("simnet: slot %d: switch %d: %w", n.slot, n.switchOrder[idx], err)
			}
		}
		switch st {
		case swAsleep:
			if !n.switchByIdx[idx].Quiescent() {
				return fmt.Errorf("simnet: slot %d: switch %d asleep but not quiescent", n.slot, n.switchOrder[idx])
			}
			asleep++
			sleepSum += n.sleepSince[idx]
		case swAwake:
			awake++
		}
	}
	if asleep != n.asleep || sleepSum != n.sleepSum {
		return fmt.Errorf("simnet: slot %d: sleep totals (%d, %d) drifted from switch states (%d, %d)",
			n.slot, n.asleep, n.sleepSum, asleep, sleepSum)
	}
	if len(n.active) != awake {
		return fmt.Errorf("simnet: slot %d: active list has %d entries, %d switches awake", n.slot, len(n.active), awake)
	}
	for i, idx := range n.active {
		if n.swState[idx] != swAwake {
			return fmt.Errorf("simnet: slot %d: active list holds switch %d, which is not awake", n.slot, n.switchOrder[idx])
		}
		if i > 0 && n.active[i-1] >= idx {
			return fmt.Errorf("simnet: slot %d: active list unsorted or duplicated at position %d", n.slot, i)
		}
	}
	// The ready list is exactly the open circuits with cells queued at
	// their source, in ascending VCI (so duplicate-free), each in its slot.
	queued := 0
	for _, e := range n.circOrder {
		c := e.c
		if e.vc != c.VC || n.slots[c.slot] != c {
			return fmt.Errorf("simnet: slot %d: circuit %d is not where the circuit tables say (slot %d)", n.slot, c.VC, c.slot)
		}
		if c.ready != (c.queued() > 0) {
			return fmt.Errorf("simnet: slot %d: circuit %d has %d cells queued but ready=%v", n.slot, c.VC, c.queued(), c.ready)
		}
		if c.ready {
			queued++
		}
	}
	if len(n.ready) != queued {
		return fmt.Errorf("simnet: slot %d: ready list has %d entries, %d circuits have cells queued", n.slot, len(n.ready), queued)
	}
	for i, e := range n.ready {
		if open, _ := n.find(e.vc); open != e.c || !e.c.ready {
			return fmt.Errorf("simnet: slot %d: ready list holds circuit %d, which is not an open circuit with cells queued", n.slot, e.vc)
		}
		if i > 0 && n.ready[i-1].vc >= e.vc {
			return fmt.Errorf("simnet: slot %d: ready list unsorted or duplicated at position %d", n.slot, i)
		}
	}
	if err := n.flights.check("cell", n.slot); err != nil {
		return err
	}
	return n.credits.check("credit", n.slot)
}
