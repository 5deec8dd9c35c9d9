// Package eventsim provides a deterministic discrete-event simulation
// engine. It drives every timed experiment in the AN2 reproduction: the
// slotted data path, link-failure schedules, credit round trips, and the
// control-plane latency budget.
//
// Determinism contract: with the same seed and the same sequence of
// Schedule calls, a simulation produces identical results. Ties in time are
// broken by scheduling order (FIFO): every push takes a monotonic sequence
// number, the heaps order by (time, sequence), and no two entries ever
// compare equal — so same-time events fire in exactly the order they were
// scheduled, on every run.
package eventsim

import (
	"container/heap"
	"errors"
	"math/rand"
)

// Time is simulated time. Its unit is defined by the simulation that uses
// the engine; the data-plane simulations interpret one unit as one cell
// slot (≈0.68 µs at 622 Mb/s for a 53-byte cell).
type Time int64

// Event is a scheduled callback.
type Event struct {
	at   Time
	seq  uint64
	fn   func()
	idx  int // heap index; -1 when not queued
	dead bool
}

// Cancel prevents a pending event from firing. Canceling an already-fired
// or already-canceled event is a no-op.
func (e *Event) Cancel() {
	if e != nil {
		e.dead = true
	}
}

// eventQueue is a min-heap over (at, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx = i
	q[j].idx = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.idx = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*q = old[:n-1]
	return e
}

// Engine is a discrete-event scheduler. Create one with New.
type Engine struct {
	now   Time
	seq   uint64
	queue eventQueue
	rng   *rand.Rand
	fired int64
}

// New creates an engine whose random source is seeded with seed. All
// randomness in a simulation should flow from Rand() so runs reproduce.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() int64 { return e.fired }

// Pending returns the number of events waiting to fire.
func (e *Engine) Pending() int { return len(e.queue) }

// ErrPastEvent reports an attempt to schedule an event before Now.
var ErrPastEvent = errors.New("eventsim: event scheduled in the past")

// Schedule queues fn to run at absolute time at. It returns the event so
// the caller may cancel it. Scheduling at the current time is allowed (the
// event fires after all events already queued for that time).
func (e *Engine) Schedule(at Time, fn func()) (*Event, error) {
	if at < e.now {
		return nil, ErrPastEvent
	}
	ev := &Event{at: at, seq: e.seq, fn: fn, idx: -1}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev, nil
}

// After queues fn to run delay units from now. A non-positive delay runs at
// the current time, after events already queued for this time.
func (e *Engine) After(delay Time, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	ev, _ := e.Schedule(e.now+delay, fn) // cannot fail: at >= now
	return ev
}

// Every schedules fn to run every interval units, starting after one
// interval. The returned stop function cancels future firings. interval
// must be positive; if not, Every does nothing and returns a no-op stop.
func (e *Engine) Every(interval Time, fn func()) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	stopped := false
	var tick func()
	var pending *Event
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			pending = e.After(interval, tick)
		}
	}
	pending = e.After(interval, tick)
	return func() {
		stopped = true
		pending.Cancel()
	}
}

// Step fires the single next event. It returns false if the queue is empty.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*Event)
		if ev.dead {
			continue
		}
		e.now = ev.at
		e.fired++
		ev.fn()
		return true
	}
	return false
}

// Run fires events until the queue is empty or the time of the next event
// exceeds until. It returns the number of events fired.
func (e *Engine) Run(until Time) int64 {
	start := e.fired
	for len(e.queue) > 0 {
		// Skip dead events cheaply.
		if e.queue[0].dead {
			heap.Pop(&e.queue)
			continue
		}
		if e.queue[0].at > until {
			break
		}
		e.Step()
	}
	if e.now < until {
		e.now = until
	}
	return e.fired - start
}

// Drain fires every remaining event regardless of time. It guards against
// runaway self-scheduling with a generous event budget; it returns false if
// the budget was exhausted before the queue emptied.
func (e *Engine) Drain(maxEvents int64) bool {
	for i := int64(0); i < maxEvents; i++ {
		if !e.Step() {
			return true
		}
	}
	return e.Pending() == 0
}
