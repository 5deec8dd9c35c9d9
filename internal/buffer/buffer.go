// Package buffer implements the input-buffer organizations the paper
// contrasts in §3 and §5:
//
//   - FIFO: a single first-in-first-out queue per input (AN1). Only the
//     head cell is eligible for transmission, causing head-of-line
//     blocking, which limits throughput to ~58% under uniform traffic.
//   - PerVC: random-access input buffers (AN2). Cells queue per virtual
//     circuit; the head cell of *any* queued circuit may be selected, so a
//     cell is blocked only when its output is busy. Per-VC buffers also
//     remove the buffer-wait cycles that make FIFO networks deadlock-prone
//     (§5).
//
// Both implement InputBuffer so the switch and the experiments can swap
// disciplines. Neither hashes anything: a per-VC buffer is, per output, a
// short VCI-sorted slice of queues, the software shape of a table indexed by
// VCI (buffer_test.go keeps the map-based form it replaced as the reference
// model of a differential test).
package buffer

import (
	"slices"

	"repro/internal/cell"
)

// InputBuffer is an input-side cell store on a line card.
type InputBuffer interface {
	// Push enqueues a cell with its destination output port. It reports
	// false if the buffer rejected (dropped) the cell for lack of space.
	// (By value: a pointer handed to an interface method escapes, which
	// would cost callers holding a cell on their stack an allocation.)
	Push(c cell.Cell, output int) bool
	// Eligible returns the set of output ports for which this input has a
	// cell eligible for transmission this slot. For FIFO that is just the
	// head cell's output; for per-VC buffers it is every output with a
	// queued circuit.
	Eligible() []int
	// EligibleBits returns the same set as Eligible as a bitset (bit j set
	// iff an eligible cell for output j is buffered). The slice is owned
	// by the buffer — callers must treat it as read-only and must not
	// retain it across mutations — and may be shorter than the switch's
	// word count (missing high words are zero). This is the slot-loop hot
	// path: the switch ANDs it word-wise into the request matrix with no
	// per-output iteration and no allocation.
	EligibleBits() []uint64
	// Pop removes an eligible cell destined to the given output into *into
	// (the switch pops straight into its departure list, so the cell is
	// copied once). It reports false, leaving *into alone, if no eligible
	// cell for that output exists.
	Pop(output int, into *cell.Cell) bool
	// Len returns the number of buffered cells.
	Len() int
	// CountVC returns the number of buffered cells belonging to circuit vc.
	CountVC(vc cell.VCI) int
	// Drop discards all buffered cells of circuit vc (teardown, page-out,
	// reroute purge), returning how many were discarded. EligibleBits stays
	// consistent with the surviving contents.
	Drop(vc cell.VCI) int
	// DropAll discards every buffered cell (a crashed line card losing its
	// memory), returning how many were discarded.
	DropAll() int
}

// queued pairs a cell with its output port.
type queued struct {
	c      cell.Cell
	output int
}

// FIFO is the AN1-style single queue. The zero value is unusable; create
// with NewFIFO.
type FIFO struct {
	q     []queued
	head  int
	limit int
	bits  []uint64 // scratch backing EligibleBits
}

var _ InputBuffer = (*FIFO)(nil)

// NewFIFO creates a FIFO input buffer holding at most limit cells
// (limit <= 0 means unbounded).
func NewFIFO(limit int) *FIFO {
	return &FIFO{limit: limit}
}

// Push implements InputBuffer.
func (f *FIFO) Push(c cell.Cell, output int) bool {
	if f.limit > 0 && f.Len() >= f.limit {
		return false
	}
	f.q = append(f.q, queued{c: c, output: output})
	return true
}

// Eligible implements InputBuffer: only the head cell's output.
func (f *FIFO) Eligible() []int {
	if f.head >= len(f.q) {
		return nil
	}
	return []int{f.q[f.head].output}
}

// EligibleBits implements InputBuffer: a single bit for the head cell's
// output (empty bitset when the queue is empty).
func (f *FIFO) EligibleBits() []uint64 {
	if f.head >= len(f.q) {
		return nil
	}
	j := f.q[f.head].output
	words := j/64 + 1
	if cap(f.bits) < words {
		f.bits = make([]uint64, words)
	}
	f.bits = f.bits[:words]
	for w := range f.bits {
		f.bits[w] = 0
	}
	f.bits[words-1] = 1 << (uint(j) % 64)
	return f.bits
}

// Pop implements InputBuffer: only the head cell may leave, and only
// toward its own output.
func (f *FIFO) Pop(output int, into *cell.Cell) bool {
	if f.head >= len(f.q) || f.q[f.head].output != output {
		return false
	}
	*into = f.q[f.head].c
	f.head++
	// Compact occasionally so memory stays bounded.
	if f.head > 64 && f.head*2 >= len(f.q) {
		n := copy(f.q, f.q[f.head:])
		f.q = f.q[:n]
		f.head = 0
	}
	return true
}

// Len implements InputBuffer.
func (f *FIFO) Len() int { return len(f.q) - f.head }

// CountVC implements InputBuffer by scanning the queue.
func (f *FIFO) CountVC(vc cell.VCI) int {
	n := 0
	for _, it := range f.q[f.head:] {
		if it.c.VC == vc {
			n++
		}
	}
	return n
}

// Drop implements InputBuffer: it compacts the queue in place, removing
// every cell of circuit vc while preserving the order of the rest.
func (f *FIFO) Drop(vc cell.VCI) int {
	kept := f.q[:0]
	dropped := 0
	for _, it := range f.q[f.head:] {
		if it.c.VC == vc {
			dropped++
			continue
		}
		kept = append(kept, it)
	}
	f.q = kept
	f.head = 0
	return dropped
}

// DropAll implements InputBuffer.
func (f *FIFO) DropAll() int {
	n := f.Len()
	f.q = f.q[:0]
	f.head = 0
	return n
}

// PerVC is the AN2-style random-access buffer: one queue per virtual
// circuit, grouped by the output port the circuit leaves through — the
// shape of the hardware, where a cell's VCI selects its queue and each
// output has its own arbiter. Nothing is keyed by hash: an output's queues
// are a slice in ascending VCI, found by binary search, and outputs and
// queues come into being when a cell first needs them, so an idle line card
// costs one small struct. Create with NewPerVC.
type PerVC struct {
	// outs[o] serves output o; it grows to the highest output used.
	outs []outQueues
	// perVCLimit bounds each circuit's queue (0 = unbounded). The paper
	// sizes this to a link round-trip (credit allocation, §5).
	perVCLimit int
	total      int
	// bits has bit o set iff some circuit has a cell queued for output o,
	// maintained incrementally so EligibleBits is O(1) with no allocation.
	bits []uint64
	// free pools the cell storage of emptied queues so a circuit draining
	// and refilling every few slots does not allocate each time.
	free [][]cell.Cell
}

// outQueues is one output's arbiter state.
type outQueues struct {
	// qs holds the non-empty queues routed to this output, ascending VCI.
	qs []vcQueue
	// last is the circuit served most recently (valid once served): the
	// round-robin pointer. It outlives the circuit's queue, Drop and
	// DropAll, and still decides who is served next.
	last   cell.VCI
	served bool
}

// vcQueue is one circuit's cells, oldest at head.
type vcQueue struct {
	vc    cell.VCI
	cells []cell.Cell
	head  int
}

func (q *vcQueue) len() int { return len(q.cells) - q.head }

var _ InputBuffer = (*PerVC)(nil)

// NewPerVC creates a per-virtual-circuit random-access buffer. perVCLimit
// bounds each circuit's queue; 0 means unbounded.
func NewPerVC(perVCLimit int) *PerVC {
	return &PerVC{perVCLimit: perVCLimit}
}

// search finds circuit vc among the output's queues: its position, or where
// it would be inserted.
func (o *outQueues) search(vc cell.VCI) (int, bool) {
	lo, hi := 0, len(o.qs)
	for lo < hi {
		if mid := (lo + hi) / 2; o.qs[mid].vc < vc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(o.qs) && o.qs[lo].vc == vc
}

// Push implements InputBuffer. A circuit has a single route through the
// switch, so all its queued cells share one output (the route tables keep it
// constant between reroutes, and a reroute purges the circuit first).
func (p *PerVC) Push(c cell.Cell, output int) bool {
	for len(p.outs) <= output {
		p.outs = append(p.outs, outQueues{})
	}
	o := &p.outs[output]
	i, found := o.search(c.VC)
	if !found {
		var cells []cell.Cell
		if k := len(p.free); k > 0 {
			cells, p.free = p.free[k-1], p.free[:k-1]
		}
		o.qs = slices.Insert(o.qs, i, vcQueue{vc: c.VC, cells: cells})
		p.setBit(output)
	} else if p.perVCLimit > 0 && o.qs[i].len() >= p.perVCLimit {
		return false
	}
	q := &o.qs[i]
	q.cells = append(q.cells, c)
	p.total++
	return true
}

// setBit marks output o eligible, growing the bitset as needed.
func (p *PerVC) setBit(o int) {
	w := o / 64
	for len(p.bits) <= w {
		p.bits = append(p.bits, 0)
	}
	p.bits[w] |= 1 << (uint(o) % 64)
}

// remove takes the emptied (or dropped) queue at position i off output o,
// pooling its storage and clearing the output's eligible bit when it was the
// last.
func (p *PerVC) remove(output, i int) {
	o := &p.outs[output]
	p.free = append(p.free, o.qs[i].cells[:0])
	o.qs = slices.Delete(o.qs, i, i+1)
	if len(o.qs) == 0 {
		p.bits[output/64] &^= 1 << (uint(output) % 64)
	}
}

// Eligible implements InputBuffer: every output with at least one queued
// circuit, ascending.
func (p *PerVC) Eligible() []int {
	var out []int
	for o := range p.outs {
		if len(p.outs[o].qs) > 0 {
			out = append(out, o)
		}
	}
	return out
}

// EligibleBits implements InputBuffer: the incrementally maintained output
// bitset, equal bit-for-bit to Eligible.
func (p *PerVC) EligibleBits() []uint64 { return p.bits }

// Queued reports whether a cell is queued for the output, i.e. whether Pop
// would succeed.
func (p *PerVC) Queued(output int) bool {
	return output < len(p.outs) && len(p.outs[output].qs) > 0
}

// Pop implements InputBuffer. Among the circuits queued for the output it
// serves them round-robin — the next VCI above the last one served,
// wrapping to the lowest — so one busy circuit cannot monopolize the port.
func (p *PerVC) Pop(output int, into *cell.Cell) bool {
	if !p.Queued(output) {
		return false
	}
	o := &p.outs[output]
	i := 0
	if o.served {
		if i, _ = o.search(o.last + 1); i == len(o.qs) {
			i = 0
		}
	}
	q := &o.qs[i]
	*into = q.cells[q.head]
	q.head++
	o.last, o.served = q.vc, true
	p.total--
	if q.len() == 0 {
		p.remove(output, i)
	} else if q.head > 64 && q.head*2 >= len(q.cells) {
		q.cells = q.cells[:copy(q.cells, q.cells[q.head:])]
		q.head = 0
	}
	return true
}

// Len implements InputBuffer.
func (p *PerVC) Len() int { return p.total }

// locate finds circuit vc's queue, whichever output it is routed to.
func (p *PerVC) locate(vc cell.VCI) (output, i int, found bool) {
	for output := range p.outs {
		if i, found := p.outs[output].search(vc); found {
			return output, i, true
		}
	}
	return 0, 0, false
}

// QueueLen returns the number of cells queued for circuit vc.
func (p *PerVC) QueueLen(vc cell.VCI) int {
	if o, i, found := p.locate(vc); found {
		return p.outs[o].qs[i].len()
	}
	return 0
}

// CountVC implements InputBuffer.
func (p *PerVC) CountVC(vc cell.VCI) int { return p.QueueLen(vc) }

// Circuits returns the number of circuits with queued cells.
func (p *PerVC) Circuits() int {
	n := 0
	for o := range p.outs {
		n += len(p.outs[o].qs)
	}
	return n
}

// Drop discards all cells of circuit vc (used on teardown/page-out),
// returning how many were discarded.
func (p *PerVC) Drop(vc cell.VCI) int {
	o, i, found := p.locate(vc)
	if !found {
		return 0
	}
	n := p.outs[o].qs[i].len()
	p.total -= n
	p.remove(o, i)
	return n
}

// DropAll implements InputBuffer.
func (p *PerVC) DropAll() int {
	n := p.total
	for o := range p.outs {
		for i := len(p.outs[o].qs) - 1; i >= 0; i-- {
			p.remove(o, i)
		}
	}
	p.total = 0
	return n
}
