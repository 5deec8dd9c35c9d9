package flowcontrol

import (
	"testing"

	"repro/internal/cell"
)

func TestSetCapacityGrowAndShrink(t *testing.T) {
	l := mustLink(t, 3)
	open(t, l, 1, 4)
	if got, err := l.SetCapacity(1, 8); err != nil || got != 8 {
		t.Fatalf("grow: %d, %v", got, err)
	}
	if l.Balance(1) != 8 {
		t.Fatalf("balance after grow = %d", l.Balance(1))
	}
	if got, err := l.SetCapacity(1, 2); err != nil || got != 2 {
		t.Fatalf("shrink: %d, %v", got, err)
	}
	if l.Balance(1) != 2 {
		t.Fatalf("balance after shrink = %d", l.Balance(1))
	}
	if _, err := l.SetCapacity(99, 4); err == nil {
		t.Fatal("unknown circuit accepted")
	}
	if got, _ := l.SetCapacity(1, 0); got != 1 {
		t.Fatalf("capacity clamped to %d, want 1", got)
	}
	if l.Capacity(1) != 1 || l.Capacity(99) != 0 {
		t.Fatal("Capacity getter wrong")
	}
}

func TestSetCapacityShrinkClampedByOutstanding(t *testing.T) {
	l := mustLink(t, 5)
	open(t, l, 1, 8)
	injectN(t, l, 1, 8)
	// Fill the pipe: several cells outstanding.
	for s := 0; s < 4; s++ {
		l.Step()
	}
	outstanding := 8 - l.Balance(1)
	if outstanding == 0 {
		t.Fatal("test needs outstanding cells")
	}
	got, err := l.SetCapacity(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got < outstanding {
		t.Fatalf("shrink to %d below outstanding %d", got, outstanding)
	}
	// The conservation invariant still holds at the new capacity.
	for s := 0; s < 200; s++ {
		l.Step()
		if _, err := l.CheckInvariant(1); err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
	}
}

func TestAllocatorValidation(t *testing.T) {
	l := mustLink(t, 2)
	if _, err := NewAllocator(l, 0, 1, 0); err == nil {
		t.Fatal("zero pool accepted")
	}
	a, err := NewAllocator(l, 10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.floor != 1 || a.ceiling != int(l.RoundTripSlots()) {
		t.Fatalf("defaults: floor=%d ceiling=%d", a.floor, a.ceiling)
	}
	a.Rebalance() // no circuits: no-op
}

func TestAllocatorShiftsToDemand(t *testing.T) {
	l := mustLink(t, 5)
	rtt := int(l.RoundTripSlots()) // 11
	// 8 circuits, pool of 2×RTT + 6 floor = far less than 8×RTT.
	pool := 2*rtt + 6
	for vc := cell.VCI(1); vc <= 8; vc++ {
		open(t, l, vc, pool/8)
	}
	a, err := NewAllocator(l, pool, 1, rtt)
	if err != nil {
		t.Fatal(err)
	}
	// Only circuits 1 and 2 have traffic.
	for s := 0; s < 50*rtt; s++ {
		if l.PendingAtSource(1) < 4 {
			if err := l.Inject(1, cell.Cell{}); err != nil {
				t.Fatal(err)
			}
		}
		if l.PendingAtSource(2) < 4 {
			if err := l.Inject(2, cell.Cell{}); err != nil {
				t.Fatal(err)
			}
		}
		l.Step()
		if s%(4*rtt) == 0 {
			a.Rebalance()
		}
	}
	// The hot circuits should have grown toward the RTT ceiling; the idle
	// ones should sit at the floor.
	if l.Capacity(1) < rtt-2 || l.Capacity(2) < rtt-2 {
		t.Fatalf("hot circuits at %d/%d, want ≈ %d", l.Capacity(1), l.Capacity(2), rtt)
	}
	for vc := cell.VCI(3); vc <= 8; vc++ {
		if l.Capacity(vc) > 2 {
			t.Fatalf("idle circuit %d holds %d buffers", vc, l.Capacity(vc))
		}
	}
	// The pool is respected.
	total := 0
	for _, vc := range l.rrOrder {
		total += l.Capacity(vc)
	}
	if total > pool {
		t.Fatalf("allocated %d exceeds pool %d", total, pool)
	}
}

// E20's claim in miniature: with a pool too small for static RTT shares,
// adaptive allocation beats an even static split for skewed demand.
func TestAdaptiveBeatsStaticForSkewedDemand(t *testing.T) {
	const latency = 5
	run := func(adaptive bool) float64 {
		l := mustLink(t, latency)
		rtt := int(l.RoundTripSlots())
		pool := 2*rtt + 6
		for vc := cell.VCI(1); vc <= 8; vc++ {
			open(t, l, vc, pool/8) // static even split
		}
		var a *Allocator
		if adaptive {
			var err error
			a, err = NewAllocator(l, pool, 1, rtt)
			if err != nil {
				t.Fatal(err)
			}
		}
		delivered := 0
		const slots = 3000
		for s := 0; s < slots; s++ {
			for _, hot := range []cell.VCI{1, 2} {
				if l.PendingAtSource(hot) < 4 {
					if err := l.Inject(hot, cell.Cell{}); err != nil {
						t.Fatal(err)
					}
				}
			}
			delivered += len(l.Step())
			if a != nil && s%(4*rtt) == 0 {
				a.Rebalance()
			}
		}
		return float64(delivered) / slots
	}
	static := run(false)
	adaptive := run(true)
	if adaptive <= static {
		t.Fatalf("adaptive %.3f not better than static %.3f", adaptive, static)
	}
	if adaptive < 0.9 {
		t.Fatalf("adaptive throughput %.3f; two hot circuits should saturate the link", adaptive)
	}
}

func TestAllocatorEvenWhenNoDemandSignal(t *testing.T) {
	l := mustLink(t, 2)
	for vc := cell.VCI(1); vc <= 4; vc++ {
		open(t, l, vc, 1)
	}
	a, err := NewAllocator(l, 12, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	a.Rebalance()
	for vc := cell.VCI(1); vc <= 4; vc++ {
		if l.Capacity(vc) != 3 {
			t.Fatalf("even split: circuit %d has %d, want 3", vc, l.Capacity(vc))
		}
	}
}
