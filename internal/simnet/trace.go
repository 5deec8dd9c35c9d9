package simnet

import (
	"fmt"
	"io"

	"repro/internal/cell"
	"repro/internal/obs"
	"repro/internal/topology"
)

// Tracer receives trace events. Implementations must be fast; they run
// inside the simulation loop. An event is an obs.Event, the span model
// shared by every plane, so a tracer attached here also sees the recovery
// loop's and the chaos harness's events with their Epoch / Incident / Dur
// correlation fields, and the obs analyzers (Analyze, WriteChromeTrace)
// consume simnet traces directly. Its Kind is one of obs's Kind* names
// (see obs.AllKinds).
type Tracer interface {
	Trace(obs.Event)
}

// JSONLTracer writes one JSON object per line, in obs.Event's encoding.
type JSONLTracer struct {
	w   io.Writer
	buf []byte // one encoded line, reused
	n   int64
	err error
}

var _ Tracer = (*JSONLTracer)(nil)

// NewJSONLTracer creates a tracer writing JSON lines to w.
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	return &JSONLTracer{w: w}
}

// Trace implements Tracer. Write errors are sticky and reported by Err.
func (t *JSONLTracer) Trace(ev obs.Event) {
	if t.err != nil {
		return
	}
	t.buf = append(ev.AppendJSON(t.buf[:0]), '\n')
	if _, err := t.w.Write(t.buf); err != nil {
		t.err = fmt.Errorf("simnet: trace: %w", err)
		return
	}
	t.n++
}

// Events returns the number of events written.
func (t *JSONLTracer) Events() int64 { return t.n }

// Err returns the first write error, if any.
func (t *JSONLTracer) Err() error { return t.err }

// CollectTracer buffers events in memory (tests and small runs).
type CollectTracer struct {
	Events []obs.Event
}

var _ Tracer = (*CollectTracer)(nil)

// Trace implements Tracer.
func (t *CollectTracer) Trace(ev obs.Event) { t.Events = append(t.Events, ev) }

// Count returns how many events of the kind were recorded.
func (t *CollectTracer) Count(kind string) int {
	n := 0
	for _, ev := range t.Events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// EmitEvent lets cooperating control-plane packages (the recovery loop)
// stamp a fully formed event — including the span correlation fields
// Epoch, Incident and Dur — into the trace stream, keeping one totally
// ordered timeline across planes. The event's
// Slot is overwritten with the network's current slot so the stream stays
// totally ordered.
func (n *Network) EmitEvent(ev obs.Event) {
	if n.cfg.Tracer == nil {
		return
	}
	ev.Slot = n.slot
	n.cfg.Tracer.Trace(ev)
}

// trace emits an event if a tracer is configured.
func (n *Network) trace(kind string, vc cell.VCI, node topology.NodeID, link topology.LinkID, seq uint64) {
	if n.cfg.Tracer == nil {
		return
	}
	n.cfg.Tracer.Trace(obs.Event{
		Slot: n.slot,
		Kind: kind,
		VC:   uint32(vc),
		Node: int32(node),
		Link: int32(link),
		Seq:  seq,
	})
}
