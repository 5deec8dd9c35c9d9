package eventsim

import (
	"testing"
)

// TestEveryStopReentrancy: calling the stop function from inside the
// ticking callback itself must take effect immediately — the callback
// neither reschedules nor fires again, even when later events keep the
// engine running.
func TestEveryStopReentrancy(t *testing.T) {
	e := New(1)
	fired := 0
	var stop func()
	stop = e.Every(10, func() {
		fired++
		if fired == 3 {
			stop() // re-entrant: stop from within the tick being stopped
		}
	})
	e.After(1000, func() {}) // keep time advancing past the stop
	e.Drain(1 << 20)
	if fired != 3 {
		t.Fatalf("ticker fired %d times after re-entrant stop at 3", fired)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending; the stopped ticker left one queued live", e.Pending())
	}
}

// TestEveryStopTwice: stopping an already-stopped ticker is a no-op.
func TestEveryStopTwice(t *testing.T) {
	e := New(1)
	fired := 0
	stop := e.Every(5, func() { fired++ })
	e.Run(12)
	stop()
	stop()
	e.Run(100)
	if fired != 2 {
		t.Fatalf("fired %d times, want exactly the 2 pre-stop ticks", fired)
	}
}

// TestCancelAlreadyFired: canceling an event after it has fired must be a
// no-op — it neither un-fires it, panics, nor perturbs later events.
func TestCancelAlreadyFired(t *testing.T) {
	e := New(1)
	var order []int
	ev, err := e.Schedule(5, func() { order = append(order, 1) })
	if err != nil {
		t.Fatal(err)
	}
	e.After(10, func() { order = append(order, 2) })
	if !e.Step() {
		t.Fatal("no event to fire")
	}
	ev.Cancel() // already fired
	ev.Cancel() // and again
	e.Drain(16)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
	if e.Fired() != 2 {
		t.Fatalf("fired = %d, want 2", e.Fired())
	}
}

// TestSameTimeOrderingUnderHeapChurn stresses the determinism contract's
// tie rule: many events scheduled for the same instant, interleaved with
// earlier and later ones so the heap reorders internally, must still fire
// in scheduling order.
func TestSameTimeOrderingUnderHeapChurn(t *testing.T) {
	e := New(1)
	var order []int
	// Interleave ties at t=50 with noise at other times, so heap sifts
	// move the tied entries around.
	for i := 0; i < 64; i++ {
		i := i
		if _, err := e.Schedule(50, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
		e.After(Time(100+i), func() {})
		if _, err := e.Schedule(Time(10+i%7), func() {}); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain(1 << 20)
	if len(order) != 64 {
		t.Fatalf("fired %d tied events, want 64", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("tied events fired out of scheduling order: position %d got %d\nfull order: %v", i, got, order)
		}
	}
}
