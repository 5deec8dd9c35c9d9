package obs

import (
	"bufio"
	"io"
	"os"
	"sync"
)

// SpanWriter emits service spans as JSONL — the same format ReadJSONL
// parses and simnet.JSONLTracer writes, so client- and server-side span
// streams feed straight into cmd/an2trace. It is safe for concurrent
// emitters (the tenant workload runs hundreds of goroutines) and buffers
// internally; call Flush (or Close) before handing the underlying stream
// to a reader. A nil *SpanWriter is the disabled state: Emit on it
// returns after one pointer comparison, so callers thread it through
// unconditionally, like a nil Registry handle.
type SpanWriter struct {
	mu  sync.Mutex
	w   *bufio.Writer
	buf []byte // one encoded line, reused under mu
}

// NewSpanWriter wraps w in a buffered, locked JSONL span emitter.
func NewSpanWriter(w io.Writer) *SpanWriter {
	return &SpanWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

// Emit appends one span. It encodes into the writer's own line buffer, so
// it allocates nothing once that buffer has grown to a line; write errors
// surface on Flush.
func (sw *SpanWriter) Emit(ev *Event) {
	if sw == nil {
		return
	}
	sw.mu.Lock()
	sw.buf = append(ev.AppendJSON(sw.buf[:0]), '\n')
	sw.w.Write(sw.buf)
	sw.mu.Unlock()
}

// Flush drains the internal buffer to the underlying writer.
func (sw *SpanWriter) Flush() error {
	if sw == nil {
		return nil
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.w.Flush()
}

// Ring is the incident flight recorder: the most recent spans, kept by
// value in at most n slots. Both the service client and server keep one
// even when full span emission is off, and dump it on panic, drain, a shed
// watermark crossing, or a refusal-rate trigger — so a post-mortem of a
// chaos kill does not require having had tracing enabled.
//
// The slots grow by append as spans arrive, so a new ring costs its
// header and nothing more; once full, Put overwrites the oldest slot in
// place and allocates nothing. One mutex orders writers and readers, so a
// snapshot holds whole spans, each writer's in the order it put them. A
// nil *Ring is the disabled state — Put returns after one pointer
// comparison.
type Ring struct {
	mu    sync.Mutex
	n     int     // capacity
	old   int     // index of the oldest span once full
	slots []Event // len < n until full
}

// NewRing creates a recorder holding the last n spans (minimum 1).
func NewRing(n int) *Ring {
	return &Ring{n: max(n, 1)}
}

// Put records one span, overwriting the oldest when full. The event is
// copied; the caller's value may be reused.
func (r *Ring) Put(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.slots) < r.n {
		if len(r.slots) == cap(r.slots) { // double, but never past n
			grown := make([]Event, len(r.slots), min(max(2*len(r.slots), 16), r.n))
			r.slots = grown[:copy(grown, r.slots)]
		}
		r.slots = append(r.slots, ev)
	} else {
		r.slots[r.old] = ev
		if r.old++; r.old == r.n {
			r.old = 0
		}
	}
	r.mu.Unlock()
}

// Len reports how many spans the ring currently holds.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.slots)
}

// Snapshot returns the recorded spans, oldest first. Nil on a nil or
// empty ring.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.slots) == 0 {
		return nil
	}
	out := make([]Event, 0, len(r.slots))
	out = append(out, r.slots[r.old:]...)
	return append(out, r.slots[:r.old]...)
}

// DumpJSONL writes the snapshot as JSONL and returns the span count.
func (r *Ring) DumpJSONL(w io.Writer) (int, error) {
	evs := r.Snapshot()
	var b []byte
	for i := range evs {
		b = append(evs[i].AppendJSON(b), '\n')
	}
	_, err := w.Write(b)
	return len(evs), err
}

// DumpFile writes the snapshot to path (created or truncated) and
// returns the span count. On a nil ring it writes nothing and returns 0.
func (r *Ring) DumpFile(path string) (int, error) {
	if r == nil || path == "" {
		return 0, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := r.DumpJSONL(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}
