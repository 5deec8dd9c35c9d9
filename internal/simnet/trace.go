package simnet

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/cell"
	"repro/internal/obs"
	"repro/internal/topology"
)

// TraceEvent is one observable network event, for debugging and for
// offline analysis of simulation runs. It is an alias of obs.Event — the
// span model shared by every plane — so a tracer attached here also sees
// the recovery loop's and the chaos harness's events with their Epoch /
// Incident / Dur correlation fields, and the obs analyzers (Analyze,
// WriteChromeTrace) consume simnet traces directly.
type TraceEvent = obs.Event

// Trace event kinds, re-exported from obs under their historical names
// (the JSONL vocabulary is shared across all planes; see obs.AllKinds).
const (
	TraceInject    = obs.KindInject    // cell left its source host
	TraceDeliver   = obs.KindDeliver   // cell reached its destination host
	TraceHop       = obs.KindHop       // cell departed a switch (Config.TraceHops)
	TraceDropFault = obs.KindDropFault // cell died on a failed link/switch
	TraceDropRoute = obs.KindDropRoute // cell discarded by a reroute
	TraceOpen      = obs.KindOpen      // circuit established
	TraceClose     = obs.KindClose     // circuit torn down
	TraceReroute   = obs.KindReroute   // circuit moved to a new path
	TraceKillLink  = obs.KindKillLink
	TraceKillNode  = obs.KindKillNode
	TraceRestore   = obs.KindRestoreLink
	// Fault-path accounting events.
	TraceRestoreNode = obs.KindRestoreNode // crashed switch brought back
	TracePurge       = obs.KindPurge       // buffered cells drained (Seq = count)
	TraceResync      = obs.KindResync      // ingress credit window resynced
	// TraceRecovery event family: emitted by the recovery control loop
	// (internal/recovery) via EmitEvent, so a single trace stream
	// shows hardware faults, the loop's beliefs, and the data-plane
	// consequences on one timeline.
	TraceRecoveryDetect   = obs.KindRecoveryDetect   // skeptic believed a transition
	TraceRecoveryReconfig = obs.KindRecoveryReconfig // reconfiguration round done
	TraceRecoveryReroute  = obs.KindRecoveryReroute  // circuit moved by the loop
	TraceRecoveryRepair   = obs.KindRecoveryRepair   // incident closed (Dur = outage slots)
	TraceRecoveryRetry    = obs.KindRecoveryRetry    // repair pass left circuits stranded
)

// Tracer receives trace events. Implementations must be fast; they run
// inside the simulation loop.
type Tracer interface {
	Trace(TraceEvent)
}

// JSONLTracer writes one JSON object per line.
type JSONLTracer struct {
	w   io.Writer
	enc *json.Encoder
	n   int64
	err error
}

var _ Tracer = (*JSONLTracer)(nil)

// NewJSONLTracer creates a tracer writing JSON lines to w.
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	return &JSONLTracer{w: w, enc: json.NewEncoder(w)}
}

// Trace implements Tracer. Encoding errors are sticky and reported by Err.
func (t *JSONLTracer) Trace(ev TraceEvent) {
	if t.err != nil {
		return
	}
	if err := t.enc.Encode(ev); err != nil {
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
	Events []TraceEvent
}

var _ Tracer = (*CollectTracer)(nil)

// Trace implements Tracer.
func (t *CollectTracer) Trace(ev TraceEvent) { t.Events = append(t.Events, ev) }

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
func (n *Network) EmitEvent(ev TraceEvent) {
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
	n.cfg.Tracer.Trace(TraceEvent{
		Slot: n.slot,
		Kind: kind,
		VC:   uint32(vc),
		Node: int32(node),
		Link: int32(link),
		Seq:  seq,
	})
}
