package ctrlnet

import (
	"sync"
	"time"

	"repro/internal/topology"
)

// FaultyTransport composes the seeded fault injector over ANY Transport,
// so the drop/dup/reorder/delay/corrupt engine that package reconfig runs
// against the in-memory channel applies equally to real sockets: a UDP
// service endpoint wrapped in Faulty sees 10% loss on loopback, decided
// by the same deterministic engine with the same precedence contract.
//
// The wrapper holds the decision engine behind a mutex (sockets are used
// from many goroutines); full per-message determinism therefore requires
// a single-threaded caller, exactly as with Net itself. With concurrent
// senders the individual decisions stay honest draws from the configured
// distribution — only their assignment to messages varies run to run.
//
// Fault semantics over an asynchronous inner transport:
//
//   - Dropped (and burst-dropped) messages are simply not forwarded.
//   - Corrupted messages forward the mutilated image; the receiver's CRC
//     rejects it.
//   - Delayed and duplicated images forward after their extra latency in
//     WALL time (the virtual-µs jitter is slept for real), so a delayed
//     control message truly arrives late at the socket.
//   - Reordered messages are held and forwarded behind the next message
//     on the same directed link, or by Flush — the engine's contract,
//     unchanged.
type FaultyTransport struct {
	inner  Transport
	waiter Waiter // inner's, if any

	mu  sync.Mutex
	eng *Net

	// timers tracks in-flight delayed forwards so Close can stop them.
	timers map[*time.Timer]struct{}
	closed bool
	// afterFunc arms a delayed forward: time.AfterFunc, or a test's hook
	// that fires it on the test's own schedule.
	afterFunc func(time.Duration, func()) *time.Timer
}

// Faulty wraps inner with the fault engine configured by cfg. The engine
// is private to the wrapper; cfg.Seed reproduces the decision stream.
func Faulty(inner Transport, cfg Config) (*FaultyTransport, error) {
	eng, err := New(cfg)
	if err != nil {
		return nil, err
	}
	f := &FaultyTransport{
		inner:     inner,
		eng:       eng,
		timers:    make(map[*time.Timer]struct{}),
		afterFunc: time.AfterFunc,
	}
	f.waiter, _ = inner.(Waiter)
	return f, nil
}

// Send threads the message through the fault engine and forwards the
// surviving images to the inner transport. Images the engine stamps with
// extra latency are forwarded from a timer after that latency has really
// elapsed. The returned deliveries are whatever the inner transport
// returned for the images forwarded inline (nil for socket transports).
func (f *FaultyTransport) Send(from, to topology.NodeID, wire []byte, arriveUS int64) ([]Delivery, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, nil
	}
	ds := f.eng.Transmit(from, to, wire, arriveUS)
	f.mu.Unlock()
	var out []Delivery
	var firstErr error
	for _, d := range ds {
		if lateUS := d.AtUS - arriveUS; lateUS > 0 {
			f.forwardLater(d, time.Duration(lateUS)*time.Microsecond)
			continue
		}
		got, err := f.inner.Send(d.From, d.To, d.Wire, d.AtUS)
		out = append(out, got...)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return out, firstErr
}

// forwardLater schedules one delayed image. The timer set keeps Close
// from leaking goroutines-in-waiting past the transport's life.
func (f *FaultyTransport) forwardLater(d Delivery, after time.Duration) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	var t *time.Timer
	t = f.afterFunc(after, func() {
		f.mu.Lock()
		delete(f.timers, t)
		dead := f.closed
		f.mu.Unlock()
		if !dead {
			_, _ = f.inner.Send(d.From, d.To, d.Wire, d.AtUS)
		}
	})
	f.timers[t] = struct{}{}
	f.mu.Unlock()
}

// Poll drains the inner transport.
func (f *FaultyTransport) Poll() []Delivery { return f.inner.Poll() }

// Flush releases the engine's held (reordered) messages through the
// inner transport, then flushes the inner transport itself.
func (f *FaultyTransport) Flush() []Delivery {
	f.mu.Lock()
	held := f.eng.Flush()
	f.mu.Unlock()
	for _, d := range held {
		_, _ = f.inner.Send(d.From, d.To, d.Wire, d.AtUS)
	}
	return f.inner.Flush()
}

// Wait blocks for deliveries via the inner transport's Waiter, or
// degrades to a paced poll when the inner transport has none.
func (f *FaultyTransport) Wait(timeout time.Duration) []Delivery {
	if f.waiter != nil {
		return f.waiter.Wait(timeout)
	}
	deadline := time.Now().Add(timeout)
	for {
		if ds := f.inner.Poll(); len(ds) > 0 {
			return ds
		}
		if !time.Now().Before(deadline) {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
}

// Close stops pending delayed forwards and closes the inner transport.
func (f *FaultyTransport) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	for t := range f.timers {
		t.Stop()
	}
	f.timers = nil
	f.mu.Unlock()
	return f.inner.Close()
}

// Stats returns the fault engine's decision counters.
func (f *FaultyTransport) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.eng.Stats()
}

var (
	_ Transport = (*FaultyTransport)(nil)
	_ Waiter    = (*FaultyTransport)(nil)
	_ Stater    = (*FaultyTransport)(nil)
)
