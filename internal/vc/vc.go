// Package vc models AN2 virtual-circuit signaling at the switch level
// (paper §2): circuit setup cells processed in software, the race between
// a setup cell and the data cells that follow it, idle-circuit page-out
// and page-in, and teardown.
//
// When a new virtual circuit is created, a setup cell travels the path;
// at each switch it is passed to the line-card processor, which chooses
// the outgoing port and installs the routing-table entry. Data cells may
// follow the setup cell immediately: if they arrive at a switch before the
// entry is installed, they are buffered (flow control prevents overflow)
// and forwarded once the entry exists. All cells after the setup cell are
// routed in hardware.
//
// Page-out reclaims the resources of an idle circuit: a switch releases
// the circuit's buffers, removes the routing entry, and notifies the
// downstream switch, which pages out as well. If cells for the circuit
// later arrive, the circuit is paged back in (a setup cell is regenerated)
// transparently — at the cost of a software delay.
package vc

import (
	"errors"
	"fmt"

	"repro/internal/cell"
)

// Config tunes the signaling chain.
type Config struct {
	// Switches is the number of switches on the path (>= 1).
	Switches int
	// LinkLatency is the per-hop propagation delay in slots (>= 1).
	LinkLatency int64
	// ProcDelay is the line-card software time to process a setup cell
	// and install the routing entry, in slots (>= 1). Hardware-routed
	// data cells do not pay it.
	ProcDelay int64
	// IdleTimeout pages out a circuit after this many slots without
	// traffic at a switch (0 disables page-out).
	IdleTimeout int64
}

// entryState is a routing entry's lifecycle at one switch.
type entryState int

const (
	entryNone entryState = iota
	entryInstalling
	entryInstalled
	entryPagedOut
)

// swState is one switch on the signaling path. Data cells always pass
// through the per-circuit queue, which is served one cell per slot once
// the routing entry is installed — so cells buffered during the setup race
// stay ahead of cells that arrive after the entry exists.
type swState struct {
	state    map[cell.VCI]entryState
	readyAt  map[cell.VCI]int64
	queue    map[cell.VCI][]cell.Cell
	lastUsed map[cell.VCI]int64
}

func newSwState() *swState {
	return &swState{
		state:    make(map[cell.VCI]entryState),
		readyAt:  make(map[cell.VCI]int64),
		queue:    make(map[cell.VCI][]cell.Cell),
		lastUsed: make(map[cell.VCI]int64),
	}
}

// flight is a cell between switches. stage is the index of the switch the
// cell is heading to; stage == len(switches) means the destination host.
type flight struct {
	arrive int64
	stage  int
	c      cell.Cell
}

// Chain is a linear signaling path of switches between two hosts. It is a
// focused model: the full data plane lives in package simnet; Chain
// isolates the software/signaling behaviors so they can be tested
// precisely.
type Chain struct {
	cfg      Config
	switches []*swState
	inflight []flight
	slot     int64

	delivered []cell.Cell
	stats     Stats
}

// Stats counts signaling-relevant events.
type Stats struct {
	Delivered      int64
	BufferedAtRace int64 // data cells that had to wait for an entry
	PageOuts       int64
	PageIns        int64
	Drops          int64 // must stay 0: the point of the design
}

// New creates a signaling chain.
func New(cfg Config) (*Chain, error) {
	if cfg.Switches < 1 {
		return nil, fmt.Errorf("vc: switches %d", cfg.Switches)
	}
	if cfg.LinkLatency < 1 {
		return nil, fmt.Errorf("vc: link latency %d", cfg.LinkLatency)
	}
	if cfg.ProcDelay < 1 {
		return nil, fmt.Errorf("vc: proc delay %d", cfg.ProcDelay)
	}
	c := &Chain{cfg: cfg}
	for i := 0; i < cfg.Switches; i++ {
		c.switches = append(c.switches, newSwState())
	}
	return c, nil
}

// Slot returns the current slot.
func (ch *Chain) Slot() int64 { return ch.slot }

// Stats returns the counters.
func (ch *Chain) Stats() Stats { return ch.stats }

// Delivered returns and clears cells that reached the destination.
func (ch *Chain) Delivered() []cell.Cell {
	out := ch.delivered
	ch.delivered = nil
	return out
}

// ErrNoCircuit reports data sent on a circuit with no setup.
var ErrNoCircuit = errors.New("vc: no setup sent for circuit")

// SendSetup injects a setup (signaling) cell for the circuit at the source
// host. Data cells may be sent immediately after.
func (ch *Chain) SendSetup(vc cell.VCI) {
	ch.inflight = append(ch.inflight, flight{
		arrive: ch.slot + ch.cfg.LinkLatency,
		stage:  0,
		c:      cell.Cell{VC: vc, Signaling: true, Stamp: cell.Stamp{EnqueuedAt: ch.slot}},
	})
}

// SendData injects one data cell for the circuit at the source host.
func (ch *Chain) SendData(vc cell.VCI, seq uint64) {
	ch.inflight = append(ch.inflight, flight{
		arrive: ch.slot + ch.cfg.LinkLatency,
		stage:  0,
		c:      cell.Cell{VC: vc, Stamp: cell.Stamp{EnqueuedAt: ch.slot, Seq: seq}},
	})
}

// Step advances one slot.
func (ch *Chain) Step() {
	now := ch.slot

	// 1. Complete pending installs.
	for _, sw := range ch.switches {
		for vc, at := range sw.readyAt {
			if at > now {
				continue
			}
			delete(sw.readyAt, vc)
			sw.state[vc] = entryInstalled
			sw.lastUsed[vc] = now
		}
	}

	// 2. Deliver in-flight cells. Snapshot the list first: arrive()
	// appends new flights to ch.inflight.
	arrivals := ch.inflight
	ch.inflight = nil
	for _, f := range arrivals {
		if f.arrive > now {
			ch.inflight = append(ch.inflight, f)
			continue
		}
		if f.stage == len(ch.switches) {
			ch.delivered = append(ch.delivered, f.c)
			ch.stats.Delivered++
			continue
		}
		ch.arrive(f.stage, f.c, now)
	}

	// 3. Serve the per-circuit queues: one cell per circuit per slot
	// leaves each switch whose entry is installed. Serving through the
	// queue keeps race-buffered cells ahead of later arrivals.
	for i, sw := range ch.switches {
		for vc, q := range sw.queue {
			if len(q) == 0 || sw.state[vc] != entryInstalled {
				continue
			}
			c := q[0]
			sw.queue[vc] = q[1:]
			if len(sw.queue[vc]) == 0 {
				delete(sw.queue, vc)
			}
			sw.lastUsed[vc] = now
			ch.forward(i, c, now)
		}
	}

	// 4. Page out idle circuits.
	if ch.cfg.IdleTimeout > 0 {
		for _, sw := range ch.switches {
			for vc, last := range sw.lastUsed {
				if sw.state[vc] == entryInstalled && now-last > ch.cfg.IdleTimeout && len(sw.queue[vc]) == 0 {
					sw.state[vc] = entryPagedOut
					ch.stats.PageOuts++
				}
			}
		}
	}

	ch.slot++
}

// arrive processes a cell reaching switch i.
func (ch *Chain) arrive(i int, c cell.Cell, now int64) {
	sw := ch.switches[i]
	if c.Signaling {
		// Setup cell: passed to the line-card processor. The entry is
		// installed after ProcDelay; the setup cell itself is forwarded
		// immediately (it must reach downstream switches too).
		if sw.state[c.VC] != entryInstalled {
			sw.state[c.VC] = entryInstalling
			sw.readyAt[c.VC] = now + ch.cfg.ProcDelay
		}
		ch.forward(i, c, now)
		return
	}
	switch sw.state[c.VC] {
	case entryInstalled:
		// Hardware path: joins the (typically empty) queue and is served
		// this same slot — the 2 µs cut-through.
	case entryInstalling:
		// The race (paper §2): the entry is not filled in yet; the cell
		// waits in the circuit's buffer.
		ch.stats.BufferedAtRace++
	case entryPagedOut:
		// Page-in: software recreates the circuit; the cell waits like in
		// the setup race, and a regenerated setup travels ahead so the
		// downstream switches page back in too.
		sw.state[c.VC] = entryInstalling
		sw.readyAt[c.VC] = now + ch.cfg.ProcDelay
		ch.stats.PageIns++
		ch.inflight = append(ch.inflight, flight{
			arrive: now + ch.cfg.ProcDelay + ch.cfg.LinkLatency,
			stage:  i + 1,
			c:      cell.Cell{VC: c.VC, Signaling: true},
		})
		ch.stats.BufferedAtRace++
	default:
		// No setup ever seen: the cell waits for the entry indefinitely
		// under flow control.
		ch.stats.BufferedAtRace++
	}
	sw.queue[c.VC] = append(sw.queue[c.VC], c)
}

// forward sends a cell from switch i to the next stage at time base.
func (ch *Chain) forward(i int, c cell.Cell, base int64) {
	ch.inflight = append(ch.inflight, flight{
		arrive: base + ch.cfg.LinkLatency,
		stage:  i + 1,
		c:      c,
	})
}

// Run advances n slots.
func (ch *Chain) Run(n int64) {
	for k := int64(0); k < n; k++ {
		ch.Step()
	}
}
