package ctrlnet

import (
	"sync"
	"testing"
	"time"

	"repro/internal/topology"
)

// sinkTransport records every forwarded image, standing in for a socket.
type sinkTransport struct {
	mu   sync.Mutex
	sent []Delivery
}

func (s *sinkTransport) Send(from, to topology.NodeID, wire []byte, atUS int64) ([]Delivery, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sent = append(s.sent, Delivery{From: from, To: to, Wire: append([]byte(nil), wire...), AtUS: atUS})
	return nil, nil
}
func (s *sinkTransport) Poll() []Delivery  { return nil }
func (s *sinkTransport) Flush() []Delivery { return nil }
func (s *sinkTransport) Close() error      { return nil }

func (s *sinkTransport) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sent)
}

func TestFaultyDropsAndForwards(t *testing.T) {
	sink := &sinkTransport{}
	f, err := Faulty(sink, Config{DropProb: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	for i := 0; i < n; i++ {
		if _, err := f.Send(1, 2, []byte{byte(i)}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats()
	if st.Sent != n {
		t.Fatalf("Sent = %d, want %d", st.Sent, n)
	}
	if st.Dropped == 0 {
		t.Fatal("no drops at DropProb=0.5")
	}
	if got := sink.count(); int64(got) != n-st.Dropped {
		t.Fatalf("forwarded %d, want offered - dropped = %d", got, n-st.Dropped)
	}
}

func TestFaultyDeterministicAcrossRuns(t *testing.T) {
	run := func() int {
		sink := &sinkTransport{}
		f, _ := Faulty(sink, Config{DropProb: 0.3, Seed: 42})
		for i := 0; i < 200; i++ {
			_, _ = f.Send(1, 2, []byte{1}, int64(i))
		}
		return sink.count()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed diverged: %d vs %d forwarded", a, b)
	}
}

func TestFaultyDuplicatesArriveLater(t *testing.T) {
	sink := &sinkTransport{}
	f, err := Faulty(sink, Config{DupProb: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Send(1, 2, []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if got := sink.count(); got != 1 {
		t.Fatalf("immediate forwards = %d, want 1 (dup is delayed)", got)
	}
	// The duplicate's extra latency is wall time (≤40µs); allow slack.
	deadline := time.Now().Add(time.Second)
	for sink.count() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := sink.count(); got != 2 {
		t.Fatalf("total forwards = %d, want 2 after dup latency", got)
	}
}

func TestFaultyReorderHeldThenReleased(t *testing.T) {
	sink := &sinkTransport{}
	f, err := Faulty(sink, Config{ReorderProb: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Delayed forwards wait for the test to fire them, not for a timer
	// that could beat the checks below.
	var armed []func()
	f.afterFunc = func(after time.Duration, fire func()) *time.Timer {
		if after <= 0 {
			t.Errorf("delayed forward armed with %v", after)
		}
		armed = append(armed, fire)
		tm := time.NewTimer(time.Hour)
		tm.Stop()
		return tm
	}
	_, _ = f.Send(1, 2, []byte("first"), 10)
	if got := sink.count(); got != 0 || len(armed) != 0 {
		t.Fatalf("held message forwarded (%d) or armed (%d) immediately", got, len(armed))
	}
	// The next message on the link releases the held one BEHIND it: the
	// second goes out inline, the first follows a tick later (its release
	// stamp is bumped past the releaser, which the wrapper sleeps out).
	_, _ = f.Send(1, 2, []byte("second"), 20)
	if got := sink.count(); got != 1 || len(armed) != 1 {
		t.Fatalf("releaser forwarded %d inline and armed %d, want 1 and 1", got, len(armed))
	}
	armed[0]()
	if got := sink.count(); got != 2 {
		t.Fatalf("forwarded %d, want releaser + released = 2", got)
	}
	sink.mu.Lock()
	order := [2]string{string(sink.sent[0].Wire), string(sink.sent[1].Wire)}
	sink.mu.Unlock()
	if order != [2]string{"second", "first"} {
		t.Fatalf("delivery order %v, want [second first]", order)
	}
	if st := f.Stats(); st.Reordered != 1 {
		t.Fatalf("Reordered = %d, want 1 (one held slot per link)", st.Reordered)
	}
}

func TestFaultyCloseStopsDelayedForwards(t *testing.T) {
	sink := &sinkTransport{}
	f, err := Faulty(sink, Config{DelayProb: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// The delayed forward's timer waits an hour, not its ≤40 µs, so only
	// Close or the test can fire it.
	var fire func()
	var timer *time.Timer
	f.afterFunc = func(_ time.Duration, f func()) *time.Timer {
		fire, timer = f, time.AfterFunc(time.Hour, f)
		return timer
	}
	_, _ = f.Send(1, 2, []byte("slow"), 0)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if timer == nil || timer.Stop() {
		t.Fatal("Close left the delayed forward armed")
	}
	fire() // a timer that fired just as Close ran
	if got := sink.count(); got != 0 {
		t.Fatalf("delayed forward escaped Close (%d)", got)
	}
	// Sends after Close are no-ops, not panics.
	if _, err := f.Send(1, 2, []byte("late"), 0); err != nil {
		t.Fatal(err)
	}
}

// Over a real socket pair: a Faulty-wrapped UDP endpoint loses the
// configured fraction, and what survives arrives intact through the
// inner transport's Waiter.
func TestFaultyOverUDP(t *testing.T) {
	rx, err := NewUDP(UDPConfig{Local: map[topology.NodeID]string{2: "127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	txInner, err := NewUDP(UDPConfig{
		Local: map[topology.NodeID]string{1: "127.0.0.1:0"},
		Peers: map[topology.NodeID]string{2: rx.Addr(2).String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := Faulty(txInner, Config{DropProb: 0.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	const n = 200
	for i := 0; i < n; i++ {
		if _, err := tx.Send(1, 2, []byte{0xAB, byte(i)}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := n - tx.Stats().Dropped
	got := 0
	deadline := time.Now().Add(2 * time.Second)
	for int64(got) < want && time.Now().Before(deadline) {
		got += len(rx.Wait(50 * time.Millisecond))
	}
	if int64(got) != want {
		t.Fatalf("received %d datagrams, want survivors = %d of %d", got, want, n)
	}
}
