package obs

import "sync"

// Series is a slot-clock ring-buffer time series: the last seriesCapacity
// (slot, value) samples of some instantaneous quantity — a port's
// occupancy, a circuit's credit window, a scheduler's per-slot matching
// iterations, the recovery loop's retry count. Writers call Record once
// per slot; exporters read a consistent copy with Samples. A nil *Series
// ignores all calls.
type Series struct {
	id  string
	mu  sync.Mutex
	buf []sample
	// head is the index the next sample lands in; n the filled count.
	head, n int
}

type sample struct {
	slot int64
	val  int64
}

// seriesCapacity is the number of samples every series retains.
const seriesCapacity = 1024

// Series returns the ring-buffer series for name+labels, creating it on
// first use. Returns nil on a nil registry.
func (r *Registry) Series(name string, labels ...string) *Series {
	if r == nil {
		return nil
	}
	id := ident(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[id]; ok {
		return s
	}
	s := &Series{id: id, buf: make([]sample, seriesCapacity)}
	r.series[id] = s
	return s
}

// Record appends one sample, evicting the oldest when full. No-op on a
// nil handle.
func (s *Series) Record(slot, value int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.buf[s.head] = sample{slot, value}
	s.head = (s.head + 1) % len(s.buf)
	if s.n < len(s.buf) {
		s.n++
	}
	s.mu.Unlock()
}

// Samples returns the retained samples oldest-first as parallel slices.
// Empty on a nil handle.
func (s *Series) Samples() (slots, values []int64) {
	if s == nil {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	slots = make([]int64, s.n)
	values = make([]int64, s.n)
	start := s.head - s.n
	if start < 0 {
		start += len(s.buf)
	}
	for i := 0; i < s.n; i++ {
		sm := s.buf[(start+i)%len(s.buf)]
		slots[i] = sm.slot
		values[i] = sm.val
	}
	return slots, values
}

// Last returns the most recent sample; ok is false when empty or nil.
func (s *Series) Last() (slot, value int64, ok bool) {
	if s == nil {
		return 0, 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return 0, 0, false
	}
	i := s.head - 1
	if i < 0 {
		i += len(s.buf)
	}
	return s.buf[i].slot, s.buf[i].val, true
}
