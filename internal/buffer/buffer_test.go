package buffer

import (
	"testing"
	"testing/quick"

	"repro/internal/cell"
)

func mk(vc cell.VCI, seq uint64) cell.Cell {
	return cell.Cell{VC: vc, Stamp: cell.Stamp{Seq: seq}}
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
	if _, ok := f.Pop(5); ok {
		t.Fatal("HoL-blocked cell escaped the FIFO")
	}
	c, ok := f.Pop(3)
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
	f.Pop(0)
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
		c, ok := f.Pop(0)
		if !ok || c.Stamp.Seq != uint64(i) {
			t.Fatalf("pop %d: got seq %d ok=%v", i, c.Stamp.Seq, ok)
		}
	}
	if f.Len() != 100 {
		t.Fatalf("Len = %d, want 100", f.Len())
	}
	// Remaining cells still in order.
	for i := 400; i < 500; i++ {
		c, ok := f.Pop(0)
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
	if _, ok := f.Pop(0); ok {
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
	c, ok := p.Pop(5)
	if !ok || c.VC != 2 {
		t.Fatalf("Pop(5) = %+v, %v", c, ok)
	}
	c, ok = p.Pop(3)
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
		c, ok := p.Pop(2)
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
		c, ok := p.Pop(1)
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
	if _, ok := p.Pop(9); ok {
		t.Fatal("popped from empty output")
	}
}

func TestPerVCLongRunCompaction(t *testing.T) {
	p := NewPerVC(0)
	for i := 0; i < 1000; i++ {
		p.Push(mk(1, uint64(i)), 0)
		if i%2 == 1 {
			if _, ok := p.Pop(0); !ok {
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
				c, ok := p.Pop(int(vc))
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
		p.Pop(i % 4)
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
		if got, ok := p.Pop(3); !ok || got.VC != 7 {
			t.Fatalf("pop = %+v, %v", got, ok)
		}
		if p.Len() != 0 || p.EligibleBits()[0] != 0 || len(p.Eligible()) != 0 {
			t.Fatalf("after pop: len %d bits %b eligible %v", p.Len(), p.EligibleBits(), p.Eligible())
		}
	}
	cycle() // first cycle builds the queue and the output's set
	if allocs := testing.AllocsPerRun(100, func() {
		p.Push(c, 3)
		p.Pop(3)
	}); allocs != 0 {
		t.Fatalf("empty→non-empty→empty cycle allocates %.0f times, want 0", allocs)
	}
	cycle()
}
