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
// disciplines.
package buffer

import "repro/internal/cell"

// InputBuffer is an input-side cell store on a line card.
type InputBuffer interface {
	// Push enqueues a cell with its destination output port. It reports
	// false if the buffer rejected (dropped) the cell for lack of space.
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
	// Pop removes and returns an eligible cell destined to the given
	// output. ok is false if no eligible cell for that output exists.
	Pop(output int) (c cell.Cell, ok bool)
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
func (f *FIFO) Pop(output int) (cell.Cell, bool) {
	if f.head >= len(f.q) || f.q[f.head].output != output {
		return cell.Cell{}, false
	}
	c := f.q[f.head].c
	f.head++
	// Compact occasionally so memory stays bounded.
	if f.head > 64 && f.head*2 >= len(f.q) {
		n := copy(f.q, f.q[f.head:])
		f.q = f.q[:n]
		f.head = 0
	}
	return c, true
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
// circuit. Create with NewPerVC.
type PerVC struct {
	// queues maps VCI to its cell queue.
	queues map[cell.VCI]*vcQueue
	// byOutput maps output port to the circuits with queued cells routed
	// to it, maintained so Eligible is O(outputs). A set emptied by Pop or
	// Drop stays in the map for the next Push to refill, so a port that
	// drains and refills every few slots does not allocate a set each time.
	byOutput map[int]map[cell.VCI]struct{}
	// perVCLimit bounds each circuit's queue (0 = unbounded). The paper
	// sizes this to a link round-trip (credit allocation, §5).
	perVCLimit int
	total      int
	// rr tracks the last circuit served per output, for round-robin
	// fairness among circuits sharing an output.
	rr map[int]cell.VCI
	// bits mirrors byOutput as a bitset (bit o set iff some circuit has a
	// cell queued for output o), maintained incrementally so EligibleBits
	// is O(1) with no allocation.
	bits []uint64
	// free pools emptied vcQueues so a circuit draining and refilling
	// every few slots does not allocate a fresh queue each time.
	free []*vcQueue
}

type vcQueue struct {
	cells  []queued
	head   int
	output int
}

func (q *vcQueue) len() int { return len(q.cells) - q.head }

var _ InputBuffer = (*PerVC)(nil)

// NewPerVC creates a per-virtual-circuit random-access buffer. perVCLimit
// bounds each circuit's queue; 0 means unbounded.
func NewPerVC(perVCLimit int) *PerVC {
	return &PerVC{
		queues:     make(map[cell.VCI]*vcQueue),
		byOutput:   make(map[int]map[cell.VCI]struct{}),
		perVCLimit: perVCLimit,
		rr:         make(map[int]cell.VCI),
	}
}

// Push implements InputBuffer. Cells of one circuit must all use the same
// output (a circuit has a single route through the switch); Push tracks the
// output of the most recent cell, which the route tables guarantee is
// constant between reroutes.
func (p *PerVC) Push(c cell.Cell, output int) bool {
	q := p.queues[c.VC]
	if q == nil {
		if k := len(p.free); k > 0 {
			q = p.free[k-1]
			p.free = p.free[:k-1]
			q.output = output
		} else {
			q = &vcQueue{output: output}
		}
		p.queues[c.VC] = q
	}
	if p.perVCLimit > 0 && q.len() >= p.perVCLimit {
		return false
	}
	q.cells = append(q.cells, queued{c: c, output: output})
	q.output = output
	p.total++
	set := p.byOutput[output]
	if set == nil {
		set = make(map[cell.VCI]struct{})
		p.byOutput[output] = set
	}
	set[c.VC] = struct{}{}
	p.setBit(output)
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

// clearBit unmarks output o.
func (p *PerVC) clearBit(o int) {
	if w := o / 64; w < len(p.bits) {
		p.bits[w] &^= 1 << (uint(o) % 64)
	}
}

// recycle resets an emptied queue and returns it to the free pool.
func (p *PerVC) recycle(q *vcQueue) {
	q.cells = q.cells[:0]
	q.head = 0
	p.free = append(p.free, q)
}

// Eligible implements InputBuffer: every output with at least one queued
// circuit.
func (p *PerVC) Eligible() []int {
	out := make([]int, 0, len(p.byOutput))
	for o, set := range p.byOutput {
		if len(set) > 0 {
			out = append(out, o)
		}
	}
	return out
}

// EligibleBits implements InputBuffer: the incrementally maintained output
// bitset, equal bit-for-bit to Eligible.
func (p *PerVC) EligibleBits() []uint64 { return p.bits }

// Pop implements InputBuffer. Among the circuits queued for the output it
// serves them round-robin, so one busy circuit cannot monopolize the port.
func (p *PerVC) Pop(output int) (cell.Cell, bool) {
	set := p.byOutput[output]
	if len(set) == 0 {
		return cell.Cell{}, false
	}
	vc := p.pickRR(output, set)
	q := p.queues[vc]
	item := q.cells[q.head]
	q.head++
	p.total--
	if q.len() == 0 {
		delete(p.queues, vc)
		p.recycle(q)
		delete(set, vc)
		if len(set) == 0 {
			p.clearBit(output)
		}
	} else if q.head > 64 && q.head*2 >= len(q.cells) {
		n := copy(q.cells, q.cells[q.head:])
		q.cells = q.cells[:n]
		q.head = 0
	}
	p.rr[output] = vc
	return item.c, true
}

// pickRR returns the next circuit after the last-served one in ascending
// VCI order (wrapping), giving round-robin service.
func (p *PerVC) pickRR(output int, set map[cell.VCI]struct{}) cell.VCI {
	last, served := p.rr[output]
	var best, wrap cell.VCI
	haveBest, haveWrap := false, false
	for vc := range set {
		if !haveWrap || vc < wrap {
			wrap = vc
			haveWrap = true
		}
		if served && vc <= last {
			continue
		}
		if !haveBest || vc < best {
			best = vc
			haveBest = true
		}
	}
	if haveBest {
		return best
	}
	return wrap
}

// Len implements InputBuffer.
func (p *PerVC) Len() int { return p.total }

// QueueLen returns the number of cells queued for circuit vc.
func (p *PerVC) QueueLen(vc cell.VCI) int {
	q := p.queues[vc]
	if q == nil {
		return 0
	}
	return q.len()
}

// CountVC implements InputBuffer.
func (p *PerVC) CountVC(vc cell.VCI) int { return p.QueueLen(vc) }

// Circuits returns the number of circuits with queued cells.
func (p *PerVC) Circuits() int { return len(p.queues) }

// Drop discards all cells of circuit vc (used on teardown/page-out),
// returning how many were discarded.
func (p *PerVC) Drop(vc cell.VCI) int {
	q := p.queues[vc]
	if q == nil {
		return 0
	}
	n := q.len()
	p.total -= n
	delete(p.queues, vc)
	if set := p.byOutput[q.output]; set != nil {
		delete(set, vc)
		if len(set) == 0 {
			p.clearBit(q.output)
		}
	}
	p.recycle(q)
	return n
}

// DropAll implements InputBuffer.
func (p *PerVC) DropAll() int {
	n := p.total
	for vc, q := range p.queues {
		delete(p.queues, vc)
		p.recycle(q)
	}
	for o := range p.byOutput {
		delete(p.byOutput, o)
	}
	for w := range p.bits {
		p.bits[w] = 0
	}
	p.total = 0
	return n
}
