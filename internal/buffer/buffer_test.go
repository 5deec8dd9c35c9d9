package buffer

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cell"
)

func mk(vc cell.VCI, seq uint64) cell.Cell {
	return cell.Cell{VC: vc, Stamp: cell.Stamp{Seq: seq}}
}

// pop takes a cell out of a buffer by value.
func pop(b InputBuffer, output int) (c cell.Cell, ok bool) {
	ok = b.Pop(output, &c)
	return c, ok
}

func TestFIFOOrderAndHoL(t *testing.T) {
	f := NewFIFO(0)
	f.Push(mk(1, 0), 3) // head, wants output 3
	f.Push(mk(2, 1), 5) // behind, wants output 5
	if got := f.Eligible(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Eligible = %v, want [3]", got)
	}
	// Head-of-line blocking: cell for output 5 cannot leave while head
	// wants 3.
	if _, ok := pop(f, 5); ok {
		t.Fatal("HoL-blocked cell escaped the FIFO")
	}
	c, ok := pop(f, 3)
	if !ok || c.VC != 1 {
		t.Fatalf("Pop(3) = %+v, %v", c, ok)
	}
	if got := f.Eligible(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("after pop Eligible = %v, want [5]", got)
	}
	if f.Len() != 1 {
		t.Fatalf("Len = %d, want 1", f.Len())
	}
}

func TestFIFOLimit(t *testing.T) {
	f := NewFIFO(2)
	if !f.Push(mk(1, 0), 0) || !f.Push(mk(1, 1), 0) {
		t.Fatal("pushes under limit rejected")
	}
	if f.Push(mk(1, 2), 0) {
		t.Fatal("push over limit accepted")
	}
	pop(f, 0)
	if !f.Push(mk(1, 3), 0) {
		t.Fatal("push after drain rejected")
	}
}

func TestFIFOCompaction(t *testing.T) {
	f := NewFIFO(0)
	for i := 0; i < 500; i++ {
		f.Push(mk(1, uint64(i)), 0)
	}
	for i := 0; i < 400; i++ {
		c, ok := pop(f, 0)
		if !ok || c.Stamp.Seq != uint64(i) {
			t.Fatalf("pop %d: got seq %d ok=%v", i, c.Stamp.Seq, ok)
		}
	}
	if f.Len() != 100 {
		t.Fatalf("Len = %d, want 100", f.Len())
	}
	// Remaining cells still in order.
	for i := 400; i < 500; i++ {
		c, ok := pop(f, 0)
		if !ok || c.Stamp.Seq != uint64(i) {
			t.Fatalf("post-compact pop: seq %d ok=%v, want %d", c.Stamp.Seq, ok, i)
		}
	}
}

func TestFIFOEmpty(t *testing.T) {
	f := NewFIFO(0)
	if got := f.Eligible(); got != nil {
		t.Fatalf("empty Eligible = %v", got)
	}
	if _, ok := pop(f, 0); ok {
		t.Fatal("popped from empty FIFO")
	}
}

func TestPerVCNoHoLBlocking(t *testing.T) {
	p := NewPerVC(0)
	p.Push(mk(1, 0), 3) // circuit 1 → output 3
	p.Push(mk(2, 0), 5) // circuit 2 → output 5
	elig := p.Eligible()
	if len(elig) != 2 {
		t.Fatalf("Eligible = %v, want both outputs", elig)
	}
	// The defining property: the second circuit's cell is NOT blocked by
	// the first.
	c, ok := pop(p, 5)
	if !ok || c.VC != 2 {
		t.Fatalf("Pop(5) = %+v, %v", c, ok)
	}
	c, ok = pop(p, 3)
	if !ok || c.VC != 1 {
		t.Fatalf("Pop(3) = %+v, %v", c, ok)
	}
	if p.Len() != 0 || p.Circuits() != 0 {
		t.Fatal("buffer not empty after draining")
	}
}

func TestPerVCFIFOWithinCircuit(t *testing.T) {
	p := NewPerVC(0)
	for i := 0; i < 10; i++ {
		p.Push(mk(7, uint64(i)), 2)
	}
	for i := 0; i < 10; i++ {
		c, ok := pop(p, 2)
		if !ok || c.Stamp.Seq != uint64(i) {
			t.Fatalf("within-circuit order broken at %d: seq=%d", i, c.Stamp.Seq)
		}
	}
}

func TestPerVCRoundRobinAcrossCircuits(t *testing.T) {
	p := NewPerVC(0)
	for i := 0; i < 3; i++ {
		p.Push(mk(10, uint64(i)), 1)
		p.Push(mk(20, uint64(i)), 1)
		p.Push(mk(30, uint64(i)), 1)
	}
	var order []cell.VCI
	for i := 0; i < 9; i++ {
		c, ok := pop(p, 1)
		if !ok {
			t.Fatal("pop failed")
		}
		order = append(order, c.VC)
	}
	// Each circuit must be served once per 3 pops (round robin).
	for round := 0; round < 3; round++ {
		seen := map[cell.VCI]bool{}
		for _, vc := range order[round*3 : round*3+3] {
			seen[vc] = true
		}
		if len(seen) != 3 {
			t.Fatalf("round %d not fair: %v", round, order)
		}
	}
}

func TestPerVCLimitIsPerCircuit(t *testing.T) {
	p := NewPerVC(2)
	if !p.Push(mk(1, 0), 0) || !p.Push(mk(1, 1), 0) {
		t.Fatal("under-limit push rejected")
	}
	if p.Push(mk(1, 2), 0) {
		t.Fatal("over-limit push accepted")
	}
	// Another circuit has its own independent allocation.
	if !p.Push(mk(2, 0), 0) {
		t.Fatal("independent circuit rejected")
	}
	if p.QueueLen(1) != 2 || p.QueueLen(2) != 1 || p.QueueLen(99) != 0 {
		t.Fatal("QueueLen wrong")
	}
}

func TestPerVCDrop(t *testing.T) {
	p := NewPerVC(0)
	for i := 0; i < 5; i++ {
		p.Push(mk(4, uint64(i)), 2)
	}
	p.Push(mk(5, 0), 2)
	if n := p.Drop(4); n != 5 {
		t.Fatalf("Drop = %d, want 5", n)
	}
	if p.Len() != 1 || p.QueueLen(4) != 0 {
		t.Fatal("Drop left state behind")
	}
	if n := p.Drop(4); n != 0 {
		t.Fatal("double Drop should be 0")
	}
	// Output 2 must still be eligible for circuit 5.
	if got := p.Eligible(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Eligible after drop = %v", got)
	}
}

func TestPerVCPopEmptyOutput(t *testing.T) {
	p := NewPerVC(0)
	if _, ok := pop(p, 9); ok {
		t.Fatal("popped from empty output")
	}
}

func TestPerVCLongRunCompaction(t *testing.T) {
	p := NewPerVC(0)
	for i := 0; i < 1000; i++ {
		p.Push(mk(1, uint64(i)), 0)
		if i%2 == 1 {
			if _, ok := pop(p, 0); !ok {
				t.Fatal("pop failed")
			}
		}
	}
	if p.Len() != 500 {
		t.Fatalf("Len = %d, want 500", p.Len())
	}
}

// Property: cells within a circuit always leave in push order, for any
// interleaving of pushes and pops across circuits.
func TestQuickPerVCInOrderPerCircuit(t *testing.T) {
	f := func(ops []uint8) bool {
		p := NewPerVC(0)
		nextSeq := map[cell.VCI]uint64{}
		nextPop := map[cell.VCI]uint64{}
		for _, op := range ops {
			vc := cell.VCI(op % 4)
			if op&0x80 == 0 {
				p.Push(mk(vc, nextSeq[vc]), int(vc))
				nextSeq[vc]++
			} else {
				c, ok := pop(p, int(vc))
				if !ok {
					continue
				}
				if c.Stamp.Seq != nextPop[c.VC] {
					return false
				}
				nextPop[c.VC]++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPerVCPushPop(b *testing.B) {
	p := NewPerVC(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Push(mk(cell.VCI(i%8), uint64(i)), i%4)
		pop(p, i%4)
	}
}

// TestPerVCDrainRefillAllocationFree: a circuit whose queue drains to
// empty and refills — the light-load pattern, one cell at a time — must
// not allocate on either edge once its queue and output set exist.
func TestPerVCDrainRefillAllocationFree(t *testing.T) {
	p := NewPerVC(0)
	c := cell.Cell{VC: 7}
	cycle := func() {
		if !p.Push(c, 3) {
			t.Fatal("push refused")
		}
		if p.Len() != 1 || p.EligibleBits()[0] != 1<<3 {
			t.Fatalf("after push: len %d bits %b", p.Len(), p.EligibleBits())
		}
		if got, ok := pop(p, 3); !ok || got.VC != 7 {
			t.Fatalf("pop = %+v, %v", got, ok)
		}
		if p.Len() != 0 || p.EligibleBits()[0] != 0 || len(p.Eligible()) != 0 {
			t.Fatalf("after pop: len %d bits %b eligible %v", p.Len(), p.EligibleBits(), p.Eligible())
		}
	}
	cycle() // first cycle builds the queue and the output's set
	if allocs := testing.AllocsPerRun(100, func() {
		p.Push(c, 3)
		pop(p, 3)
	}); allocs != 0 {
		t.Fatalf("empty→non-empty→empty cycle allocates %.0f times, want 0", allocs)
	}
	cycle()
}

// refPerVC is the map-based per-VC buffer that PerVC replaced (PR 21), kept
// verbatim in behaviour as the reference model: a queue per VCI, a set of
// queued circuits per output, and the round-robin pointer per output — the
// next VCI above the last one served, wrapping — that survives drains,
// Drop and DropAll.
type refPerVC struct {
	queues     map[cell.VCI]*refQueue
	byOutput   map[int]map[cell.VCI]struct{}
	rr         map[int]cell.VCI
	perVCLimit int
	total      int
}

type refQueue struct {
	cells  []cell.Cell
	output int
}

func newRefPerVC(limit int) *refPerVC {
	return &refPerVC{
		queues:     map[cell.VCI]*refQueue{},
		byOutput:   map[int]map[cell.VCI]struct{}{},
		rr:         map[int]cell.VCI{},
		perVCLimit: limit,
	}
}

func (p *refPerVC) Push(c cell.Cell, output int) bool {
	q := p.queues[c.VC]
	if q == nil {
		q = &refQueue{output: output}
		p.queues[c.VC] = q
	}
	if p.perVCLimit > 0 && len(q.cells) >= p.perVCLimit {
		return false
	}
	q.cells = append(q.cells, c)
	p.total++
	if p.byOutput[output] == nil {
		p.byOutput[output] = map[cell.VCI]struct{}{}
	}
	p.byOutput[output][c.VC] = struct{}{}
	return true
}

func (p *refPerVC) Pop(output int) (cell.Cell, bool) {
	set := p.byOutput[output]
	if len(set) == 0 {
		return cell.Cell{}, false
	}
	last, served := p.rr[output]
	var best, wrap cell.VCI
	haveBest, haveWrap := false, false
	for vc := range set {
		if !haveWrap || vc < wrap {
			wrap, haveWrap = vc, true
		}
		if served && vc <= last {
			continue
		}
		if !haveBest || vc < best {
			best, haveBest = vc, true
		}
	}
	vc := wrap
	if haveBest {
		vc = best
	}
	q := p.queues[vc]
	c := q.cells[0]
	q.cells = q.cells[1:]
	p.total--
	if len(q.cells) == 0 {
		delete(p.queues, vc)
		delete(set, vc)
	}
	p.rr[output] = vc
	return c, true
}

func (p *refPerVC) Drop(vc cell.VCI) int {
	q := p.queues[vc]
	if q == nil {
		return 0
	}
	p.total -= len(q.cells)
	delete(p.queues, vc)
	delete(p.byOutput[q.output], vc)
	return len(q.cells)
}

func (p *refPerVC) DropAll() int {
	n := p.total
	p.queues = map[cell.VCI]*refQueue{}
	p.byOutput = map[int]map[cell.VCI]struct{}{}
	p.total = 0
	return n
}

func (p *refPerVC) CountVC(vc cell.VCI) int {
	if q := p.queues[vc]; q != nil {
		return len(q.cells)
	}
	return 0
}

// eligible returns the reference's eligible-output set as one bitset word.
func (p *refPerVC) eligible() uint64 {
	var bits uint64
	for o, set := range p.byOutput {
		if len(set) > 0 {
			bits |= 1 << uint(o)
		}
	}
	return bits
}

// TestPerVCMatchesReferenceModel drives PerVC and the map-based reference
// with the same seeded stream of Push/Pop/Drop/DropAll over 16 outputs and
// 40 circuits and requires identical results at every step: the cell each
// Pop returns (so the round-robin choice, which feeds PIM's request matrix
// and with it every switch's random draws), EligibleBits, Len and CountVC.
func TestPerVCMatchesReferenceModel(t *testing.T) {
	const outputs, vcs, ops = 16, 40, 120000
	// A circuit keeps one output while it has cells queued; the first few
	// outputs carry several circuits each so round-robin has work to do.
	outputOf := func(vc cell.VCI) int {
		if vc < 24 {
			return int(vc) % 4
		}
		return int(vc) % outputs
	}
	for _, limit := range []int{0, 3} {
		p, ref := NewPerVC(limit), newRefPerVC(limit)
		rng := rand.New(rand.NewSource(int64(21 + limit)))
		for i := 0; i < ops; i++ {
			vc := cell.VCI(rng.Intn(vcs))
			switch r := rng.Intn(1000); {
			case r < 480:
				c := mk(vc, uint64(i))
				if got, want := p.Push(c, outputOf(vc)), ref.Push(c, outputOf(vc)); got != want {
					t.Fatalf("limit %d op %d: Push(vc %d) = %v, reference %v", limit, i, vc, got, want)
				}
			case r < 960:
				o := rng.Intn(outputs)
				got, ok := pop(p, o)
				want, wantOK := ref.Pop(o)
				if ok != wantOK || got != want {
					t.Fatalf("limit %d op %d: Pop(%d) = vc %d seq %d %v, reference vc %d seq %d %v",
						limit, i, o, got.VC, got.Stamp.Seq, ok, want.VC, want.Stamp.Seq, wantOK)
				}
			case r < 998:
				if got, want := p.Drop(vc), ref.Drop(vc); got != want {
					t.Fatalf("limit %d op %d: Drop(vc %d) = %d, reference %d", limit, i, vc, got, want)
				}
			default:
				if got, want := p.DropAll(), ref.DropAll(); got != want {
					t.Fatalf("limit %d op %d: DropAll = %d, reference %d", limit, i, got, want)
				}
			}
			var bits uint64
			if b := p.EligibleBits(); len(b) > 0 {
				bits = b[0]
			}
			if bits != ref.eligible() || p.Len() != ref.total || p.CountVC(vc) != ref.CountVC(vc) {
				t.Fatalf("limit %d op %d: bits %016b len %d count(vc %d) %d, reference %016b %d %d",
					limit, i, bits, p.Len(), vc, p.CountVC(vc), ref.eligible(), ref.total, ref.CountVC(vc))
			}
		}
	}
}
